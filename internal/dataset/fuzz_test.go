package dataset

import (
	"testing"

	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/trace"
)

// FuzzDecode feeds Decode arbitrary bytes, as wire fetches, -dataset
// files and tracegen -summarize can. Decode must never panic, and a
// dataset it accepts must replay to its end — every record one a
// replay can serve — and yield its block statistics. Seeds live in
// testdata/fuzz/FuzzDecode: a small valid file, and two files with a
// valid checksum that hold a requester of 200 on 16 nodes and 0 nodes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := Decode(buf)
		if err != nil {
			return
		}
		nodes := d.Nodes()
		r := d.Replay()
		for r.Remaining() > 0 {
			rec, mi := r.Next()
			if int(rec.Requester) >= nodes || rec.Kind > trace.GetExclusive ||
				(int(mi.Owner) >= nodes && mi.Owner != coherence.MemoryOwner) ||
				mi.RequesterState > cache.Modified {
				t.Fatalf("accepted unservable record %+v %+v on %d nodes", rec, mi, nodes)
			}
		}
		d.BlockStats()
	})
}
