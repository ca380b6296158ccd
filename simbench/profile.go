package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuByLayer decodes a gzipped pprof CPU profile (as runtime/pprof writes
// it) and charges each sample's CPU time to the layer of its leaf frame —
// the innermost function of the first location, inlined frames included.
// It returns seconds per layer.
func cpuByLayer(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		ns := float64(s.values[len(s.values)-1]) // cpu/nanoseconds is the last sample type
		fn := ""
		if idx := p.funcName[p.locLeaf[s.locs[0]]]; idx < int64(len(p.strs)) {
			fn = p.strs[idx]
		}
		out[layerOf(fn)] += ns / 1e9
	}
	return out, nil
}

// layerOf maps a fully qualified Go function name to its CPU layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		if slices.Contains(pkgLayers, name) {
			return name
		}
		return "other"
	}
	switch pkg {
	case "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	case "sync", "internal/sync", "sync/atomic", "internal/runtime/atomic", "runtime/internal/atomic":
		return "sched"
	case "syscall", "os", "internal/poll", "internal/runtime/syscall", "runtime/internal/syscall":
		return "syscall"
	}
	return "other"
}

// gcWords and schedWords classify runtime leaf frames by name.
var (
	gcWords = []string{
		"gc", "mark", "scan", "sweep", "scaveng", "malloc", "mheap", "mcache",
		"mcentral", "mspan", "heapBits", "greyobject", "findObject", "wbBuf",
		"WriteBarrier", "newobject", "makeslice", "growslice", "nextFree",
		"pageAlloc", "typePointers", "bulkBarrier", "spanOf", "gcBits",
	}
	schedWords = []string{
		"lock", "schedule", "findRunnable", "findrunnable", "steal", "runq",
		"park", "ready", "mcall", "osched", "procyield", "osyield", "usleep",
		"futex", "note", "sema", "wakep", "startm", "stopm", "handoffp",
		"acquirep", "releasep", "execute", "Timers", "chan", "select",
		"goexit", "newproc", "spinning", "casgstatus", "sysmon", "retake",
		"netpoll", "pidle", "mPark", "nanotime", "timeHistogram", "gQueue",
		"timer", "Timer",
	}
)

func runtimeLayer(name string) string {
	for _, w := range gcWords {
		if strings.Contains(name, w) {
			return "gc"
		}
	}
	for _, w := range schedWords {
		if strings.Contains(name, w) {
			return "sched"
		}
	}
	return "other"
}

// profile is the slice of profile.proto the layer split needs.
type profile struct {
	samples  []profSampleRec
	locLeaf  map[uint64]uint64 // location id -> leaf function id
	funcName map[uint64]int64  // function id -> string-table index
	strs     []string
}

type profSampleRec struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s profSampleRec
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					s.locs = appendPacked(s.locs, wire, v, data)
				case sampleValue:
					for _, u := range appendPacked(nil, wire, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, leaf uint64
			haveLeaf := false
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					if haveLeaf {
						return nil // later lines are the callers it was inlined into
					}
					haveLeaf = true
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strs)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v; length-delimited ones in data; fixed-width fields
// are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
