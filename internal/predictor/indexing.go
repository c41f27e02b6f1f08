package predictor

import (
	"fmt"

	"destset/internal/trace"
)

// IndexMode selects what a predictor entry is keyed by (§3.4).
type IndexMode uint8

const (
	// ByBlock indexes by data address, optionally aggregated into
	// macroblocks (MacroblockBytes > 64).
	ByBlock IndexMode = iota
	// ByPC indexes by the program counter of the missing instruction.
	ByPC
)

// Indexing describes how queries and training events map to table keys.
type Indexing struct {
	Mode IndexMode
	// MacroblockBytes is the spatial aggregation unit for ByBlock: 64
	// (plain block), 256 or 1024 in the paper's experiments; 0 means 64.
	// Config.Validate refuses any size that is negative or not a
	// multiple of 64.
	MacroblockBytes int
}

// Key maps an (address, PC) pair to the predictor table key.
func (ix Indexing) Key(addr trace.Addr, pc trace.PC) uint64 {
	if ix.Mode == ByPC {
		return uint64(pc)
	}
	mb := ix.MacroblockBytes
	if mb < trace.BlockBytes {
		mb = trace.BlockBytes
	}
	return uint64(trace.Macroblock(addr, mb))
}

// String renders the indexing for report labels, e.g. "1024B" or "PC".
func (ix Indexing) String() string {
	if ix.Mode == ByPC {
		return "PC"
	}
	mb := ix.MacroblockBytes
	if mb < trace.BlockBytes {
		mb = trace.BlockBytes
	}
	return fmt.Sprintf("%dB", mb)
}
