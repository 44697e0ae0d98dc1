package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules the CPU profile is split across, in
// report order. Every sample lands in exactly one, so the shares sum to 1.
var layers = []string{
	"trace", "cpu", "cache", "coherence", "policy", "oscore", "sim",
	"parallel", "sample", "server", "cluster", "obs", "net", "runtime",
}

// layerOf maps a repository package to the layer it is charged to. Helper
// packages (rng, stats, syscalls, workloads, isa, ...) are absent: their
// frames pass the sample up to the caller's layer, so a Zipf draw counts
// against the core model that asked for it.
var layerOf = map[string]string{
	"offloadsim/internal/trace":        "trace",
	"offloadsim/internal/tracefile":    "trace",
	"offloadsim/internal/cpu":          "cpu",
	"offloadsim/internal/cache":        "cache",
	"offloadsim/internal/coherence":    "coherence",
	"offloadsim/internal/memory":       "coherence",
	"offloadsim/internal/interconnect": "coherence",
	"offloadsim/internal/policy":       "policy",
	"offloadsim/internal/core":         "policy",
	"offloadsim/internal/oscore":       "oscore",
	"offloadsim/internal/migration":    "oscore",
	"offloadsim/internal/sim":          "sim",
	"offloadsim":                       "sim",
	"offloadsim/internal/parallel":     "parallel",
	"offloadsim/internal/sample":       "sample",
	"offloadsim/internal/server":       "server",
	"offloadsim/internal/cluster":      "cluster",
	"offloadsim/internal/obs":          "obs",
	"offloadsim/internal/telemetry":    "obs",
}

// funcPackage extracts the import path from a symbol name such as
// "offloadsim/internal/cache.(*Cache).Probe" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isNetPackage reports whether pkg belongs to the standard network stack.
func isNetPackage(pkg string) bool {
	return pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "crypto/tls")
}

// attribute charges one stack (leaf first) to a layer: the deepest frame
// in a layer package wins; a stack with none goes to net when the network
// stack is on it and to runtime otherwise.
func attribute(stack []string) string {
	net := false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		if isNetPackage(pkg) {
			net = true
		}
	}
	if net {
		return "net"
	}
	return "runtime"
}

// cpuProfile is the part of a pprof CPU profile the benchmark needs: one
// stack of function names (leaf first) and its CPU nanoseconds per sample.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// layerNanos sums CPU nanoseconds per layer; the map has every layer.
func (p *cpuProfile) layerNanos() (map[string]int64, int64) {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for i, st := range p.stacks {
		out[attribute(st)] += p.nanos[i]
		total += p.nanos[i]
	}
	return out, total
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only samples, locations, functions and the string table are
// read; the value used is the last sample value (cpu nanoseconds).
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[len(s.values)-1])
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either the varint value or the length-delimited payload.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value (payload nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
