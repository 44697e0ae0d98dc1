package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSONL writes c as JSON Lines: a meta header line followed by one
// object per event. The encoder is hand-rolled with a fixed field order
// and per-kind field sets (docs/TELEMETRY.md), so the bytes are a pure
// function of the capture. obs.ReadJSONL reads it back.
func WriteJSONL(w io.Writer, c *Capture) error {
	if c == nil {
		return fmt.Errorf("telemetry: nil capture")
	}
	b, err := json.Marshal(struct {
		Meta    Meta   `json:"meta"`
		Dropped uint64 `json:"dropped"`
	}{c.Meta, c.Dropped})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.Write(append(b, '\n'))
	for _, ev := range c.Events {
		b = appendEvent(b[:0], ev)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendEvent appends one event line.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendUint(b, ev.Time, 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(ev.Core), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(ev.Seq), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.Sys >= 0 {
		b = append(b, `,"sys":`...)
		b = strconv.AppendInt(b, int64(ev.Sys), 10)
	}
	switch ev.Kind {
	case KindOSEntry:
		b = appendInstrs(b, ev)
	case KindPredict:
		b = appendInstrs(b, ev)
		b = appendPred(b, ev)
		b = appendBool(b, `,"offload":`, ev.Offload)
		b = appendBool(b, `,"global":`, ev.Global)
		b = appendCycles(b, ev)
	case KindOSExit, KindOffloadDispatch, KindOffloadExecute, KindOffloadReturn:
		b = appendCycles(b, ev)
	case KindOffloadQueue, KindOSCoreEnqueue, KindOSCoreExecute, KindAsyncReturn:
		b = appendCycles(b, ev)
		b = appendValue(b, ev)
	case KindCacheWarm:
		b = appendValue(b, ev)
	case KindOutcome:
		b = appendInstrs(b, ev)
		b = appendPred(b, ev)
		b = appendBool(b, `,"offload":`, ev.Offload)
		b = appendValue(b, ev)
	case KindRetune:
		b = appendValue(b, ev)
	}
	return append(b, '}', '\n')
}

func appendInstrs(b []byte, ev Event) []byte {
	b = append(b, `,"instrs":`...)
	return strconv.AppendInt(b, int64(ev.Instrs), 10)
}

func appendPred(b []byte, ev Event) []byte {
	b = append(b, `,"pred":`...)
	return strconv.AppendInt(b, int64(ev.Pred), 10)
}

func appendCycles(b []byte, ev Event) []byte {
	b = append(b, `,"cycles":`...)
	return strconv.AppendUint(b, ev.Cycles, 10)
}

func appendValue(b []byte, ev Event) []byte {
	b = append(b, `,"value":`...)
	return strconv.AppendInt(b, ev.Value, 10)
}

func appendBool(b []byte, key string, v bool) []byte {
	b = append(b, key...)
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}
