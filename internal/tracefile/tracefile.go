// Package tracefile records and replays OS-entry decision traces: the
// sequence of (segment kind, syscall, argument class, AState, run length)
// tuples a workload presents to the off-loading hardware. A recorded
// trace decouples predictor/policy studies from the timing simulator —
// the same stream can be replayed through any Predictor implementation,
// shared between machines, or inspected with cmd/tracedump — while
// staying byte-for-byte reproducible.
//
// The format is a small magic header followed by varint-encoded records;
// a typical apache trace costs ~10 bytes per OS entry.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
)

// magic identifies the format and its version.
const magic = "OSLTRC1\n"

// Record is one OS-entry event. User segments are not recorded: the
// decision hardware only observes privileged-mode transitions, and
// UserGap preserves the spacing it would have seen.
type Record struct {
	// Kind is the segment kind (SyscallSegment or TrapSegment).
	Kind trace.SegmentKind
	// Sys identifies the entry point.
	Sys syscalls.ID
	// ArgClass is the invocation's argument class.
	ArgClass int
	// AState is the register hash the predictor indexes with.
	AState uint64
	// Instrs is the invocation's actual run length.
	Instrs int
	// Interrupted marks invocations extended by an external interrupt.
	Interrupted bool
	// UserGap is the user-mode instruction count since the previous OS
	// entry.
	UserGap int
}

// Writer serializes records.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter wraps w. The header is buffered at once, so an empty trace
// still carries it and readers can tell "empty" from "not a trace".
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	// The empty buffer takes the 8 bytes without writing through, so
	// this cannot fail; a write error surfaces at the first flush.
	_, _ = bw.WriteString(magic)
	return &Writer{w: bw}
}

func (w *Writer) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.w.Write(buf[:n])
	return err
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	flags := uint64(rec.Kind) & 0x3
	if rec.Interrupted {
		flags |= 0x4
	}
	for _, v := range []uint64{
		flags,
		uint64(rec.Sys),
		uint64(rec.ArgClass),
		rec.AState,
		uint64(rec.Instrs),
		uint64(rec.UserGap),
	} {
		if err := w.writeUvarint(v); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered output; call it before closing the destination.
func (w *Writer) Flush() error {
	return w.w.Flush()
}

// Reader deserializes records.
type Reader struct {
	r       byteCounter
	started bool
}

// byteCounter counts the bytes each varint takes, so Read can refuse
// the non-minimal encodings binary.ReadUvarint accepts.
type byteCounter struct {
	*bufio.Reader
	n int
}

func (c *byteCounter) ReadByte() (byte, error) {
	c.n++
	return c.Reader.ReadByte()
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: byteCounter{Reader: bufio.NewReader(r)}}
}

// ErrBadMagic reports a stream that is not a trace file.
var ErrBadMagic = errors.New("tracefile: bad magic (not an OS-entry trace)")

// Read returns the next record, or io.EOF at a clean end of stream. It
// accepts only records Writer can write: kind syscall (1) or trap (2),
// no flag bit above 0x7, every varint minimally encoded, and argClass,
// instrs and userGap within a non-negative int.
func (r *Reader) Read() (Record, error) {
	if !r.started {
		head := make([]byte, len(magic))
		if _, err := io.ReadFull(&r.r, head); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return Record{}, ErrBadMagic
			}
			return Record{}, err
		}
		if string(head) != magic {
			return Record{}, ErrBadMagic
		}
		r.started = true
	}
	var v [6]uint64 // flags, sys, argClass, astate, instrs, userGap
	var enc [binary.MaxVarintLen64]byte
	for i := range v {
		var err error
		r.r.n = 0
		if v[i], err = binary.ReadUvarint(&r.r); err != nil {
			if i == 0 && errors.Is(err, io.EOF) {
				return Record{}, io.EOF
			}
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, fmt.Errorf("tracefile: truncated record: %w", err)
		}
		if r.r.n != binary.PutUvarint(enc[:], v[i]) {
			return Record{}, errors.New("tracefile: non-minimal varint")
		}
	}
	kind := trace.SegmentKind(v[0] & 0x3)
	switch {
	case v[0] > 0x7 || kind != trace.SyscallSegment && kind != trace.TrapSegment:
		return Record{}, fmt.Errorf("tracefile: record flags %#x: want kind 1 or 2 and no bit above 0x7", v[0])
	case v[1] >= uint64(syscalls.NumIDs):
		return Record{}, fmt.Errorf("tracefile: record with invalid syscall id %d", v[1])
	case v[2] > math.MaxInt || v[4] > math.MaxInt || v[5] > math.MaxInt:
		return Record{}, fmt.Errorf("tracefile: record argClass %d, instrs %d or userGap %d overflows int", v[2], v[4], v[5])
	}
	return Record{
		Kind:        kind,
		Interrupted: v[0]&0x4 != 0,
		Sys:         syscalls.ID(v[1]),
		ArgClass:    int(v[2]),
		AState:      v[3],
		Instrs:      int(v[4]),
		UserGap:     int(v[5]),
	}, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Capture generates instrs worth of workload from src and writes the OS
// entries it produces. It returns the number of records captured.
func Capture(src trace.Source, instrs uint64, w io.Writer) (uint64, error) {
	tw := NewWriter(w)
	var generated uint64
	userGap := 0
	for generated < instrs {
		seg := src.Next()
		generated += uint64(seg.Instrs)
		if !seg.IsOS() {
			userGap += seg.Instrs
			continue
		}
		err := tw.Write(Record{
			Kind:        seg.Kind,
			Sys:         seg.Sys,
			ArgClass:    seg.ArgClass,
			AState:      seg.AState,
			Instrs:      seg.Instrs,
			Interrupted: seg.Interrupted,
			UserGap:     userGap,
		})
		if err != nil {
			return tw.Count(), err
		}
		userGap = 0
	}
	return tw.Count(), tw.Flush()
}
