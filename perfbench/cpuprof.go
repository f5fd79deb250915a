package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// modules are the layers a CPU profile is grouped into: the program's
// packages by name, "runtime" for samples with no program frame at all
// (GC workers, the scheduler, idle network polling), and "other" for the
// program's remaining packages (core, metrics and this harness).
var modules = []string{
	"sim", "mve", "world", "terrain", "rstore", "tcache", "blob", "tgen",
	"specexec", "sc", "faas", "cluster", "netproto", "rtserve", "workload",
	"runtime", "other",
}

// cpuProfile is a running CPU profile of the measured window.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() *cpuProfile {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil
	}
	return p
}

// profileDir keeps each traced run's CPU profile for `go tool pprof`,
// relative to the checkout root that run.py runs the benchmark from.
const profileDir = ".bench_build/profiles"

// stop ends the profile, keeps it under profileDir as name.pprof, and
// returns each module's share of the sampled CPU time.
func (p *cpuProfile) stop(name string) (map[string]float64, error) {
	if p == nil {
		return nil, errors.New("profiler unavailable")
	}
	pprof.StopCPUProfile()
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(profileDir, name+".pprof"), p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return moduleShares(p.buf.Bytes())
}

// moduleOf maps a profiled function name to its module. A sample counts
// toward the innermost frame that belongs to the program, so standard
// library work (a memmove, an allocation) is charged to the layer that
// asked for it.
func moduleOf(fn string) (string, bool) {
	pkg, _, _ := strings.Cut(fn, "[") // drop generic type arguments
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main":
		return "other", true
	case pkg == "servo" || strings.HasPrefix(pkg, "servo/"):
		name := pkg[strings.LastIndex(pkg, "/")+1:]
		for _, m := range modules {
			if m == name {
				return m, true
			}
		}
		return "other", true
	}
	return "", false
}

// moduleShares decodes a gzipped pprof CPU profile and sums its CPU time
// by module. The shares sum to 1.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		mod := "runtime"
	frames:
		for _, locID := range s.locs {
			for _, fnID := range prof.locFuncs[locID] {
				if m, ok := moduleOf(prof.strings[prof.funcNames[fnID]]); ok {
					mod = m
					break frames
				}
			}
		}
		byModule[mod] += v
		total += v
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			shares[m] = byModule[m] / total
		}
	}
	if total > 0 {
		sum := 0.0
		for _, s := range shares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			return shares, fmt.Errorf("module shares sum to %v", sum)
		}
	}
	return shares, nil
}

// profile is the subset of the pprof protobuf the grouping needs.
type profile struct {
	samples []pSample
	// locFuncs lists each location's function ids, innermost inlined
	// frame first.
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]int64 // function id → string table index
	strings   []string
}

type pSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s pSample
			if err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wire, v, data)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, data); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("pprof: string index %d out of range", idx)
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("pprof: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
