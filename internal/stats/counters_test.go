package stats

import "testing"

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Add("x", 5) // must not panic
	if c.Get("x") != 0 {
		t.Fatal("nil counters must read zero")
	}
	if c.Snapshot() != nil {
		t.Fatal("nil counters must snapshot empty")
	}
}

func TestCountersAccumulateAndSnapshotSorted(t *testing.T) {
	c := NewCounters()
	c.Add("z.last", 1)
	c.Add("a.first", 2)
	c.Add("a.first", 3)
	if c.Get("a.first") != 5 || c.Get("z.last") != 1 {
		t.Fatalf("a.first=%d z.last=%d", c.Get("a.first"), c.Get("z.last"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("unknown counter must read zero")
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a.first" || snap[1].Name != "z.last" {
		t.Fatalf("snapshot not sorted: %v", snap)
	}
	if snap[0].Value != 5 || snap[1].Value != 1 {
		t.Fatalf("snapshot values wrong: %v", snap)
	}
}

// TestCountersSnapshotStable pins the property -stats dumps and the
// trace smoke rely on: repeated snapshots of the same state are
// identical (map iteration order must not leak out), and a snapshot is
// a copy — mutating it cannot corrupt the registry.
func TestCountersSnapshotStable(t *testing.T) {
	c := NewCounters()
	for _, name := range []string{"m.b", "m.a", "m.c", "x.y", "a.z"} {
		c.Add(name, 1)
	}
	first := c.Snapshot()
	for i := 0; i < 10; i++ {
		again := c.Snapshot()
		if len(again) != len(first) {
			t.Fatalf("snapshot %d: %d entries, want %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("snapshot %d entry %d: %v != %v", i, j, again[j], first[j])
			}
		}
	}
	first[0].Value = 999
	if c.Get(first[0].Name) == 999 {
		t.Fatal("mutating a snapshot wrote through to the registry")
	}
}

// A snapshot taken mid-window stays immutable while the serving window
// keeps adding to the same names.
func TestCountersSnapshotStableUnderMutation(t *testing.T) {
	c := NewCounters()
	c.Add("tenant.bolt.admitted", 5)
	c.Add("tenant.bolt.rejected", 1)
	snap := c.Snapshot()
	c.Add("tenant.bolt.admitted", 100)
	c.Add("tenant.bolt.rejected", 100)
	for _, nc := range snap {
		switch nc.Name {
		case "tenant.bolt.admitted":
			if nc.Value != 5 {
				t.Fatalf("snapshot admitted moved to %d, want 5", nc.Value)
			}
		case "tenant.bolt.rejected":
			if nc.Value != 1 {
				t.Fatalf("snapshot rejected moved to %d, want 1", nc.Value)
			}
		}
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
}
