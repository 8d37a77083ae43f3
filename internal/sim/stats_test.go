package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestEventsPerSecond(t *testing.T) {
	s := RunStats{Instructions: 2_000_000, WallNanos: 500_000_000}
	if got := s.EventsPerSecond(); got != 4e6 {
		t.Fatalf("EventsPerSecond = %v, want 4e6", got)
	}
	// Zero wall time means the field was never filled; the rate must not
	// divide by zero or report garbage.
	if got := (RunStats{Instructions: 5}).EventsPerSecond(); got != 0 {
		t.Fatalf("unfilled EventsPerSecond = %v, want 0", got)
	}
	if got := (RunStats{Instructions: 5, WallNanos: -1}).EventsPerSecond(); got != 0 {
		t.Fatalf("negative-wall EventsPerSecond = %v, want 0", got)
	}
}

// TestTLBStatsJSON pins RunStats' TLB object to exactly its two counters:
// the TLB is a cache.Cache, but its hit, fill and eviction counters stay
// out of every encoded result (service bodies, cache files, artifacts).
func TestTLBStatsJSON(t *testing.T) {
	m := NewMachine(Base(), Options{})
	m.Access(0x1000, 8, false)
	m.Access(0x1008, 8, true)
	m.Access(0x9000, 8, false)
	b, err := json.Marshal(m.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte(`"TLB":{"Accesses":3,"Misses":2},`); !bytes.Contains(b, want) {
		t.Fatalf("RunStats JSON lacks %s:\n%s", want, b)
	}
}
