// Package world implements the voxel world substrate of the MVE: block and
// chunk data structures, coordinates, and a compact binary chunk encoding
// (palette plus bit-packed indices) used for persistence and the wire
// protocol. Chunks match Minecraft's dimensions: 16×16 columns of 256
// blocks, as the paper uses for its terrain-generation experiments. A
// chunk is held as 16 vertical 16³ sections, each either one block
// (uniform) or its own block array (dense), so memory and codec work
// scale with the sections that mix block types.
package world

import "fmt"

// BlockID identifies a block type. Air is the zero value so that
// newly-allocated chunks are valid empty space.
type BlockID uint8

// Block types. The circuit block types (Wire, Battery, Lamp, Repeater,
// Inverter) are the stateful blocks that form simulated constructs
// (paper §II-A): connecting them lets players program the terrain.
const (
	Air BlockID = iota
	Stone
	Dirt
	Grass
	Sand
	Water
	Bedrock
	Wood
	Leaves
	Snow
	Gravel
	// Stateful circuit blocks.
	Wire     // carries a power level 0..15, decaying per block
	Battery  // constant power source (state: on/off)
	Lamp     // lit when powered (state: on/off)
	Repeater // re-amplifies power after a delay (state: delay counter + output)
	Inverter // outputs power iff its input is unpowered; loops of these oscillate

	numBlockIDs
)

// Stateful reports whether blocks of this type carry simulation state and
// therefore participate in simulated constructs.
func (id BlockID) Stateful() bool {
	switch id {
	case Wire, Battery, Lamp, Repeater, Inverter:
		return true
	}
	return false
}

// Solid reports whether the block obstructs movement. Used by the avatar
// movement code to settle avatars on the terrain surface.
func (id BlockID) Solid() bool {
	switch id {
	case Air, Water:
		return false
	}
	return true
}

// String implements fmt.Stringer.
func (id BlockID) String() string {
	names := [...]string{
		"air", "stone", "dirt", "grass", "sand", "water", "bedrock", "wood",
		"leaves", "snow", "gravel", "wire", "battery", "lamp", "repeater",
		"inverter",
	}
	if int(id) < len(names) {
		return names[id]
	}
	return fmt.Sprintf("block(%d)", uint8(id))
}

// Block is one voxel: a type plus one byte of auxiliary state. For circuit
// blocks, Data carries the power level (Wire), the on/off bit (Battery,
// Lamp), or the delay/output encoding (Repeater, Inverter).
type Block struct {
	ID   BlockID
	Data uint8
}

// IsAir reports whether the block is empty space.
func (b Block) IsAir() bool { return b.ID == Air }

// key packs the block into a comparable map key for palette construction.
func (b Block) key() uint16 { return uint16(b.ID)<<8 | uint16(b.Data) }

func blockFromKey(k uint16) Block {
	return Block{ID: BlockID(k >> 8), Data: uint8(k)}
}
