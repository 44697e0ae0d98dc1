package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"offloadsim/internal/syscalls"
)

// WriteChrome renders a capture in the Chrome trace-event format
// (chrome://tracing, and loadable by Perfetto): a per-core timeline of
// OS-execution slices, off-load round trips nesting their queue waits,
// OS-core execution slices, threshold-N counter tracks, and cache
// warm-up instants. Simulated cycles are written as microsecond
// timestamps (1 cycle = 1 "µs"); the viewer's time axis reads as cycles.
//
// The mapping, per event kind:
//
//	os_exit         -> "X" slice on the issuing core (ts = completion - cost)
//	offload_return  -> "X" round-trip slice on the issuing core
//	offload_queue   -> "X" "queue wait" slice nested in the round trip
//	offload_execute -> "X" slice on the OS-core row (tid = UserCores)
//	cache_warm      -> "i" instant on the OS-core row (miss count in args)
//	retune          -> "C" counter sample on "threshold-N core<i>" + "i" instant
//	oscore_enqueue  -> "X" "queue wait" slice on the issuing core
//	oscore_execute  -> "X" slice on the serving OS-core row (tid = UserCores + core)
//	async_return    -> "X" "async reconcile" slice when the issuing core stalled
//
// os_entry, predict and outcome records stay JSONL-only: the slices
// above already render every OS entry, and per-decision predictor detail
// is analysis data, not timeline data.
func WriteChrome(w io.Writer, c *Capture) error {
	if c == nil {
		return fmt.Errorf("telemetry: nil capture")
	}
	m := c.Meta
	cw := NewChromeWriter(w, false,
		ChromeArg{"workload", m.Workload}, ChromeArg{"policy", m.Policy},
		ChromeArg{"time_unit", "cycle"}, ChromeArg{"dropped", int64(c.Dropped)})
	cw.Event(ChromeEvent{Ph: "M", Name: "process_name", Args: []ChromeArg{{"name", "offloadsim"}}})
	row := func(tid int, name string) {
		cw.Event(ChromeEvent{Ph: "M", Tid: tid, Name: "thread_name", Args: []ChromeArg{{"name", name}}})
		cw.Event(ChromeEvent{Ph: "M", Tid: tid, Name: "thread_sort_index", Args: []ChromeArg{{"sort_index", int64(tid)}}})
	}
	for i := 0; i < m.UserCores; i++ {
		row(i, "core "+strconv.Itoa(i))
	}
	switch {
	case m.OSCores > 1:
		for q := 0; q < m.OSCores; q++ {
			row(m.UserCores+q, "OS core "+strconv.Itoa(q))
		}
	case m.OSCore:
		row(m.UserCores, "OS core")
	}
	// slice emits one complete ("X") event; arg >= 0 adds a source-core
	// (or backlog, for queue waits) argument.
	slice := func(tid int, ts, dur uint64, name, cat string, arg int64) {
		ev := ChromeEvent{Ph: "X", Tid: tid, TS: int64(ts), Dur: int64(dur), Name: name, Cat: cat}
		if arg >= 0 {
			key := "core"
			if cat == "offload" {
				key = "backlog"
			}
			ev.Args = []ChromeArg{{key, arg}}
		}
		cw.Event(ev)
	}
	for _, ev := range c.Events {
		switch ev.Kind {
		case KindOSExit:
			slice(int(ev.Core), ev.Time-ev.Cycles, ev.Cycles, sysName(ev.Sys), "os-local", -1)
		case KindOffloadReturn:
			slice(int(ev.Core), ev.Time-ev.Cycles, ev.Cycles, sysName(ev.Sys)+" offload", "offload", -1)
		case KindOffloadQueue, KindOSCoreEnqueue:
			if ev.Cycles > 0 {
				slice(int(ev.Core), ev.Time, ev.Cycles, "queue wait", "offload", ev.Value)
			}
		case KindOffloadExecute:
			slice(m.UserCores, ev.Time, ev.Cycles, sysName(ev.Sys), "os-core", int64(ev.Core))
		case KindOSCoreExecute:
			slice(m.UserCores+int(ev.Value), ev.Time, ev.Cycles, sysName(ev.Sys), "os-core", int64(ev.Core))
		case KindAsyncReturn:
			if ev.Cycles > 0 {
				slice(int(ev.Core), ev.Time-ev.Cycles, ev.Cycles, "async reconcile", "offload", ev.Value)
			}
		case KindCacheWarm:
			cw.Event(ChromeEvent{Ph: "i", Tid: m.UserCores, TS: int64(ev.Time), Name: "cache warm", Cat: "os-core",
				Args: []ChromeArg{{"misses", ev.Value}, {"core", int64(ev.Core)}}})
		case KindRetune:
			cw.Event(ChromeEvent{Ph: "C", Tid: int(ev.Core), TS: int64(ev.Time),
				Name: "threshold-N core" + strconv.Itoa(int(ev.Core)), Args: []ChromeArg{{"N", ev.Value}}})
			// The instant's args are present but empty: {}.
			cw.Event(ChromeEvent{Ph: "i", Tid: int(ev.Core), TS: int64(ev.Time),
				Name: "retune N=" + strconv.FormatInt(ev.Value, 10), Cat: "tuner", Args: []ChromeArg{}})
		}
	}
	return cw.Close()
}

// sysName resolves a trace record's syscall/trap id to its display name.
func sysName(sys int32) string {
	if sys < 0 {
		return "os"
	}
	return syscalls.ID(sys).String()
}

// ChromeWriter encodes one Chrome trace-event document. It is the one
// encoder behind both trace stacks: WriteChrome renders a capture on the
// simulated cycle clock, and obs.WriteChrome a service span set on the
// wall clock. Strings and values print as encoding/json prints them,
// HTML escaping included, so any input yields valid JSON.
type ChromeWriter struct {
	w    *bufio.Writer
	b    []byte
	wall bool
	n    int
	err  error
}

// ChromeEvent is one trace event. Its fields print in one fixed order:
// ph, pid, tid, ts, dur (slices only), name, cat (when set), s
// (instants, which are thread-scoped) and args.
type ChromeEvent struct {
	Ph       string
	Pid, Tid int
	// TS and Dur are in the document's clock: cycles, or wall-clock
	// nanoseconds (see NewChromeWriter).
	TS, Dur   int64
	Name, Cat string
	// Args prints in the order given; nil omits the field, and an empty
	// non-nil list prints {}.
	Args []ChromeArg
}

// ChromeArg is one key of an event's args or of the document's
// otherData. Value is a string or an int64.
type ChromeArg struct {
	Key   string
	Value any
}

// NewChromeWriter opens a document on w whose otherData holds other.
// With wall set, event times are wall-clock nanoseconds and print as
// microseconds with a fraction; otherwise they are cycles and print as
// integers.
func NewChromeWriter(w io.Writer, wall bool, other ...ChromeArg) *ChromeWriter {
	cw := &ChromeWriter{w: bufio.NewWriter(w), wall: wall}
	b := appendArgs([]byte(`{"displayTimeUnit":"ms","otherData":`), other)
	cw.write(append(b, `,"traceEvents":[`...))
	return cw
}

// Event appends one event to the document.
func (cw *ChromeWriter) Event(ev ChromeEvent) {
	b := cw.b[:0]
	if cw.n > 0 {
		b = append(b, ",\n"...)
	}
	cw.n++
	b = append(b, `{"ph":`...)
	b = appendString(b, ev.Ph)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	b = append(b, `,"ts":`...)
	b = cw.appendTime(b, ev.TS)
	if ev.Ph == "X" {
		b = append(b, `,"dur":`...)
		b = cw.appendTime(b, ev.Dur)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, ev.Cat)
	}
	if ev.Ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if ev.Args != nil {
		b = append(b, `,"args":`...)
		b = appendArgs(b, ev.Args)
	}
	cw.write(append(b, '}'))
}

// Close ends the document and flushes it, returning the first error.
func (cw *ChromeWriter) Close() error {
	cw.write(append(cw.b[:0], "]}\n"...))
	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}

func (cw *ChromeWriter) write(b []byte) {
	cw.b = b
	if cw.err == nil {
		_, cw.err = cw.w.Write(b)
	}
}

// appendTime prints a cycle count as an integer, and a nanosecond count
// as microseconds the way encoding/json prints a float64: for magnitudes
// in [1e-6, 1e21), which covers every nonzero int64 over 1e3, that is
// the shortest 'f' form.
func (cw *ChromeWriter) appendTime(b []byte, t int64) []byte {
	if cw.wall {
		return strconv.AppendFloat(b, float64(t)/1e3, 'f', -1, 64)
	}
	return strconv.AppendInt(b, t, 10)
}

func appendArgs(b []byte, args []ChromeArg) []byte {
	b = append(b, '{')
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, a.Key)
		b = append(b, ':')
		switch v := a.Value.(type) {
		case string:
			b = appendString(b, v)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		default:
			panic(fmt.Sprintf("telemetry: chrome arg %q is a %T, not a string or int64", a.Key, v))
		}
	}
	return append(b, '}')
}

// appendString quotes s as encoding/json does. Printable ASCII without
// '"', '\\', '<', '>' or '&' (every string a real run emits) is copied
// as is; anything else takes encoding/json's escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			j, _ := json.Marshal(s) // a string always marshals
			return append(b, j...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
