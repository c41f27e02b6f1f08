// Package trace defines the coherence-request record types used
// throughout the repository. It holds no file format: a recorded miss
// stream is stored and replayed as a dataset (internal/dataset).
//
// Following the paper's methodology (§2.1), a trace is the stream of
// second-level cache misses; each record carries the data address, the
// program counter of the missing instruction, the requesting processor and
// the request type. We add the number of instructions the requester
// executed since its previous miss, which the execution-driven timing
// simulator (§5) needs to reconstruct compute time between misses.
package trace

import (
	"fmt"
	"math/bits"
)

// Kind is the coherence request type of a MOSI write-invalidate protocol.
type Kind uint8

const (
	// GetShared requests a read-only copy (load miss). It must reach the
	// current owner of the block.
	GetShared Kind = iota
	// GetExclusive requests a writable copy (store miss or upgrade). It
	// must reach the owner and all sharers.
	GetExclusive
)

// String returns the conventional protocol mnemonic.
func (k Kind) String() string {
	switch k {
	case GetShared:
		return "GETS"
	case GetExclusive:
		return "GETX"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Addr is a physical block-aligned data address. The low bits inside a
// cache block are never recorded; Addr counts 64-byte blocks.
type Addr uint64

// PC identifies the static load/store instruction that caused a miss.
type PC uint64

// BlockBytes is the coherence unit: 64-byte blocks, as in the paper.
const BlockBytes = 64

// MacroblockBytes is the default spatial-aggregation unit (§3.4).
const MacroblockBytes = 1024

// BlocksPerMacroblock is how many blocks a 1024-byte macroblock spans.
const BlocksPerMacroblock = MacroblockBytes / BlockBytes

// Macroblock returns the macroblock index of a for the given macroblock
// size in bytes (which must be a multiple of BlockBytes). A power-of-two
// block count, as in every paper figure, is a shift instead of a
// division: predictors compute a key on every predict and train.
func Macroblock(a Addr, sizeBytes int) Addr {
	n := uint64(sizeBytes / BlockBytes)
	if n != 0 && n&(n-1) == 0 {
		return a >> bits.TrailingZeros64(n)
	}
	return a / Addr(n)
}

// Record is one L2 cache miss / coherence request.
type Record struct {
	Addr      Addr   // 64-byte block number
	PC        PC     // static instruction
	Requester uint8  // node ID of the missing processor
	Kind      Kind   // GETS or GETX
	Gap       uint32 // instructions executed by Requester since its previous miss
}

// String formats a record for debugging.
func (r Record) String() string {
	return fmt.Sprintf("%s p%d blk=%#x pc=%#x gap=%d", r.Kind, r.Requester, uint64(r.Addr), uint64(r.PC), r.Gap)
}
