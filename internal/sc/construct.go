// Package sc implements simulated constructs (SCs): collections of stateful
// blocks through which players program the MVE's terrain (paper §II-A,
// component 6). A construct is a small grid of circuit cells — power
// sources, wires with decaying power levels, lamps, repeaters, and
// inverters — with a deterministic synchronous step function.
//
// The engine is shared verbatim between the game server (local simulation)
// and the serverless simulation function (speculative execution): both call
// Step on identical state, which is what makes Servo's remote speculation
// indistinguishable from local execution (paper §III-C).
package sc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// CellKind enumerates circuit cell types. Empty is the zero value.
type CellKind uint8

// Cell kinds. They mirror the stateful block types in internal/world.
const (
	Empty    CellKind = iota
	Wire              // carries power, decaying 15 → 0 with distance
	Source            // emits MaxPower while on
	Lamp              // lit while receiving power
	Repeater          // re-emits full power a configurable delay after its input rises
	Inverter          // emits power iff its input was unpowered last step
)

// MaxPower is the highest power level; wire power decays by one per cell.
const MaxPower = 15

// String implements fmt.Stringer.
func (k CellKind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Wire:
		return "wire"
	case Source:
		return "source"
	case Lamp:
		return "lamp"
	case Repeater:
		return "repeater"
	case Inverter:
		return "inverter"
	}
	return fmt.Sprintf("cellkind(%d)", uint8(k))
}

// Cell is one grid cell: immutable wiring (Kind, Delay) plus mutable
// simulation state (Power, On, Timer).
type Cell struct {
	Kind  CellKind
	Delay uint8 // Repeater: ticks of sustained input before the output flips

	// Mutable state.
	Power uint8 // Wire: current power level
	On    bool  // Source/Lamp/Repeater/Inverter: output or lit state
	Timer uint8 // Repeater: consecutive ticks the input has disagreed with the output
}

// Construct is a rectangular W×H grid of cells simulated in lockstep with
// the game (one Step per game tick when simulated locally).
type Construct struct {
	w, h  int
	cells []Cell
	step  uint64 // steps executed since construction
}

// New returns an empty construct with the given grid dimensions.
func New(w, h int) *Construct {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("sc: invalid construct size %dx%d", w, h))
	}
	return &Construct{w: w, h: h, cells: make([]Cell, w*h)}
}

// Size returns the grid dimensions.
func (c *Construct) Size() (w, h int) { return c.w, c.h }

// Steps returns the number of Step calls executed on this instance.
func (c *Construct) Steps() uint64 { return c.step }

func (c *Construct) idx(x, y int) int { return y*c.w + x }

// At returns the cell at (x, y); out-of-range coordinates return an Empty
// cell.
func (c *Construct) At(x, y int) Cell {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return Cell{}
	}
	return c.cells[c.idx(x, y)]
}

// Set places a cell at (x, y). Out-of-range placements are ignored.
func (c *Construct) Set(x, y int, cell Cell) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[c.idx(x, y)] = cell
}

// BlockCount returns the number of non-empty cells: the construct's size in
// blocks, the metric the paper uses for §IV-G (252- and 484-block
// constructs).
func (c *Construct) BlockCount() int {
	n := 0
	for i := range c.cells {
		if c.cells[i].Kind != Empty {
			n++
		}
	}
	return n
}

// Clone returns a deep copy sharing no state with the receiver.
func (c *Construct) Clone() *Construct {
	out := &Construct{w: c.w, h: c.h, step: c.step, cells: make([]Cell, len(c.cells))}
	copy(out.cells, c.cells)
	return out
}

var neighborOffsets = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Step advances the construct by one simulation step and returns the number
// of work units performed (cells visited during power propagation plus
// component updates). The update is synchronous and two-phase:
//
//  1. The power field is recomputed: every emitting component (Source on,
//     Repeater on, Inverter on) injects MaxPower into adjacent wires, and
//     power spreads through wire cells decaying by one per cell.
//  2. Components sample their inputs (the max power in the four adjacent
//     cells) and update: lamps light, repeater timers advance, inverters
//     invert. New outputs become visible to the power field at the next
//     step, so feedback loops oscillate rather than racing.
func (c *Construct) Step() int {
	work := c.propagatePower()
	// Phase 2: component updates against the settled power field.
	for i := range c.cells {
		cell := &c.cells[i]
		switch cell.Kind {
		case Lamp, Repeater, Inverter:
			x, y := i%c.w, i/c.w
			in := c.inputPower(x, y)
			work++
			switch cell.Kind {
			case Lamp:
				cell.On = in > 0
			case Inverter:
				cell.On = in == 0
			case Repeater:
				want := in > 0
				if want != cell.On {
					cell.Timer++
					if cell.Timer >= cell.Delay {
						cell.On = want
						cell.Timer = 0
					}
				} else {
					cell.Timer = 0
				}
			}
		}
	}
	c.step++
	return work
}

// propagatePower recomputes wire power levels from the current component
// outputs and returns the number of cells visited.
func (c *Construct) propagatePower() int {
	work := 0
	// Reset wire power, then multi-source BFS from emitters by descending
	// power level (bucketed by power, 15 levels).
	var frontier [MaxPower + 1][]int
	for i := range c.cells {
		cell := &c.cells[i]
		switch cell.Kind {
		case Wire:
			cell.Power = 0
		case Source, Repeater, Inverter:
			if cell.On {
				frontier[MaxPower] = append(frontier[MaxPower], i)
			}
		}
		work++
	}
	for p := MaxPower; p > 0; p-- {
		for _, i := range frontier[p] {
			x, y := i%c.w, i/c.w
			for _, d := range neighborOffsets {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= c.w || ny < 0 || ny >= c.h {
					continue
				}
				ni := c.idx(nx, ny)
				n := &c.cells[ni]
				work++
				if n.Kind == Wire && int(n.Power) < p-1 {
					n.Power = uint8(p - 1)
					frontier[p-1] = append(frontier[p-1], ni)
				}
			}
		}
	}
	return work
}

// inputPower returns the strongest power signal adjacent to (x, y): wire
// power, or MaxPower next to an emitting component.
func (c *Construct) inputPower(x, y int) int {
	in := 0
	for _, d := range neighborOffsets {
		n := c.At(x+d[0], y+d[1])
		var p int
		switch n.Kind {
		case Wire:
			p = int(n.Power)
		case Source, Repeater, Inverter:
			if n.On {
				p = MaxPower
			}
		}
		if p > in {
			in = p
		}
	}
	return in
}

// --- State snapshots --------------------------------------------------------

// StateVector is a canonical encoding of a construct's mutable state
// (power levels, on/off flags, timers) in cell order. Two constructs with
// identical wiring and equal StateVectors behave identically forever —
// Step is a pure function of the state vector.
type StateVector []byte

// ErrStateMismatch is returned by SetState when the vector does not match
// the construct's layout.
var ErrStateMismatch = errors.New("sc: state vector does not match construct layout")

// State snapshots the construct's mutable state.
func (c *Construct) State() StateVector {
	out := make([]byte, 0, len(c.cells)*2)
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Kind == Empty {
			continue
		}
		var on byte
		if cell.On {
			on = 1
		}
		out = append(out, cell.Power, on<<7|cell.Timer&0x7f)
	}
	return out
}

// SetState restores a snapshot previously produced by State on a construct
// with identical wiring.
func (c *Construct) SetState(s StateVector) error {
	n := 0
	for i := range c.cells {
		if c.cells[i].Kind != Empty {
			n++
		}
	}
	if len(s) != n*2 {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrStateMismatch, len(s), n*2)
	}
	j := 0
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Kind == Empty {
			continue
		}
		cell.Power = s[j]
		cell.On = s[j+1]&0x80 != 0
		cell.Timer = s[j+1] & 0x7f
		j += 2
	}
	return nil
}

// Hash returns a 64-bit FNV-1a digest of the construct's mutable state,
// used by the loop detector (paper §III-C1) to recognise repeated states.
func (c *Construct) Hash() uint64 {
	h := fnv.New64a()
	h.Write(c.State())
	return h.Sum64()
}

// --- Layout encoding ---------------------------------------------------------

// EncodeLayout serialises the construct's wiring and current state so the
// construct can be shipped to a serverless function (paper §III-C: "passes
// the simulated construct's current state").
func (c *Construct) EncodeLayout() []byte {
	out := make([]byte, 0, 8+len(c.cells)*2)
	out = binary.LittleEndian.AppendUint32(out, uint32(c.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.h))
	for i := range c.cells {
		cell := &c.cells[i]
		out = append(out, byte(cell.Kind), cell.Delay)
	}
	return append(out, c.State()...)
}

// DecodeLayout reconstructs a construct from EncodeLayout output.
func DecodeLayout(buf []byte) (*Construct, error) {
	if len(buf) < 8 {
		return nil, errors.New("sc: truncated layout")
	}
	w := int(binary.LittleEndian.Uint32(buf))
	h := int(binary.LittleEndian.Uint32(buf[4:]))
	// Bound each side before multiplying: w*h of two unchecked 32-bit
	// sides can overflow past the area guard.
	if w <= 0 || h <= 0 || w > 1<<20 || h > 1<<20 || w*h > 1<<20 {
		return nil, fmt.Errorf("sc: bad layout size %dx%d", w, h)
	}
	if len(buf) < 8+w*h*2 {
		return nil, errors.New("sc: truncated layout cells")
	}
	c := New(w, h)
	off := 8
	for i := range c.cells {
		kind := CellKind(buf[off])
		if kind > Inverter {
			return nil, fmt.Errorf("sc: unknown cell kind %d", kind)
		}
		c.cells[i] = Cell{Kind: kind, Delay: buf[off+1]}
		off += 2
	}
	if err := c.SetState(StateVector(buf[off:])); err != nil {
		return nil, err
	}
	return c, nil
}
