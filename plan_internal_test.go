package destset

import (
	"fmt"
	"testing"
)

// testPlan is a trace plan of n synthetic cells.
func testPlan(n int) *SweepPlan {
	cells := make([]PlanCell, n)
	for i := range cells {
		cells[i] = PlanCell{
			Engine:      fmt.Sprintf("e%d", i%3),
			Workload:    fmt.Sprintf("w%d", i/3),
			Seed:        uint64(i),
			Fingerprint: fingerprintParts("cell", fmt.Sprint(i)),
		}
	}
	return newSweepPlan(PlanKindTrace, cells)
}

func TestFingerprintStability(t *testing.T) {
	if fingerprintParts("a", "b") != fingerprintParts("a", "b") {
		t.Error("identical inputs produced different fingerprints")
	}
	if fingerprintParts("a", "b") == fingerprintParts("ab") {
		t.Error("part boundaries alias: fingerprintParts(a,b) == fingerprintParts(ab)")
	}
	if fingerprintParts("a", "b") == fingerprintParts("b", "a") {
		t.Error("fingerprint ignores order")
	}
	// Pinned value: the fingerprint is part of the on-disk manifest
	// contract shared by independent processes; changing the scheme
	// must be a deliberate act.
	if got := fingerprintParts("x"); got != "f91b14e7bbea4c5bfa0e1a7040177166" {
		t.Errorf("fingerprintParts(\"x\") = %q; the scheme changed — shard manifests from older builds will no longer merge", got)
	}
}

func TestPlanFingerprintCoversCells(t *testing.T) {
	a, b := testPlan(6), testPlan(6)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical plans have different fingerprints")
	}
	if testPlan(5).Fingerprint() == a.Fingerprint() {
		t.Error("plans of different length share a fingerprint")
	}
	cells := append([]PlanCell(nil), a.Cells()...)
	cells[0], cells[1] = cells[1], cells[0]
	if newSweepPlan(PlanKindTrace, cells).Fingerprint() == a.Fingerprint() {
		t.Error("reordered plan shares a fingerprint")
	}
}

func TestShardIndices(t *testing.T) {
	// Unsharded configs (0/0 and anything with shards <= 1) select all.
	for _, n := range []int{0, 1} {
		idx, err := testPlan(5).ShardIndices(0, n)
		if err != nil || len(idx) != 5 {
			t.Fatalf("ShardIndices(0, %d) of 5 cells = (%v, %v)", n, idx, err)
		}
	}
	// Every split partitions [0, total) exactly, round-robin.
	for _, total := range []int{0, 1, 7, 12} {
		plan := testPlan(total)
		for shards := 1; shards <= 5; shards++ {
			seen := make(map[int]int)
			for s := 0; s < shards; s++ {
				idx, err := plan.ShardIndices(s, shards)
				if err != nil {
					t.Fatal(err)
				}
				prev := -1
				for _, i := range idx {
					if i <= prev {
						t.Fatalf("shard %d/%d of %d not increasing: %v", s, shards, total, idx)
					}
					prev = i
					seen[i]++
				}
			}
			if len(seen) != total {
				t.Fatalf("%d shards of %d cover %d cells", shards, total, len(seen))
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("cell %d owned by %d shards", i, c)
				}
			}
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {5, 2}, {1, 1}, {3, 0}, {-1, 0}} {
		if _, err := testPlan(10).ShardIndices(bad[0], bad[1]); err == nil {
			t.Errorf("ShardIndices(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestShardIndicesMoreShardsThanCells pins the degenerate split: with
// more shards than cells the surplus shards are empty lists (not
// errors, and not nil, which WithCells would read as the whole plan),
// and the split still partitions exactly.
func TestShardIndicesMoreShardsThanCells(t *testing.T) {
	const total, shards = 3, 5
	covered := 0
	for s := 0; s < shards; s++ {
		idx, err := testPlan(total).ShardIndices(s, shards)
		if err != nil {
			t.Fatalf("shard %d/%d of %d cells: %v", s, shards, total, err)
		}
		covered += len(idx)
		if s >= total && (idx == nil || len(idx) != 0) {
			t.Errorf("shard %d/%d of %d cells = %#v, want an empty list", s, shards, total, idx)
		}
	}
	if covered != total {
		t.Fatalf("%d shards cover %d of %d cells", shards, covered, total)
	}
}

// TestShardIndicesOneWayIdentity pins the 1-way split as the identity:
// shard 0 of 1 (and the unsharded 0/0) is the whole plan, in order.
func TestShardIndicesOneWayIdentity(t *testing.T) {
	for _, shards := range []int{0, 1} {
		idx, err := testPlan(4).ShardIndices(0, shards)
		if err != nil || len(idx) != 4 {
			t.Fatalf("ShardIndices(0, %d) of 4 cells = (%v, %v)", shards, idx, err)
		}
		for i, v := range idx {
			if v != i {
				t.Fatalf("1-way shard index %d = %d", i, v)
			}
		}
	}
}
