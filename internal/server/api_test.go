package server

import (
	"reflect"
	"testing"
)

// TestSpecRequestRoundTrip: a spec's Request resolves back to the same
// spec and key. Every field is set off its default, so a Spec field that
// Request does not forward (or ResolveSpec does not read) fails here.
func TestSpecRequestRoundTrip(t *testing.T) {
	spec := Spec{
		Workload:      "swim",
		Config:        "larger-l1",
		Mechanism:     "victim",
		Classify:      true,
		UpdateWhenOff: true,
		Policy:        "ehc",
		WayMemo:       true,
		Energy:        true,
	}
	def, _, err := ResolveSpec(RunRequest{Workload: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	sv, dv := reflect.ValueOf(spec), reflect.ValueOf(def)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Interface() == dv.Field(i).Interface() {
			t.Fatalf("test spec leaves %s at its default %v", sv.Type().Field(i).Name, sv.Field(i))
		}
	}

	got, _, err := ResolveSpec(spec.Request())
	if err != nil {
		t.Fatal(err)
	}
	if got != spec || got.Key() != spec.Key() {
		t.Fatalf("ResolveSpec(spec.Request()) = %+v, want %+v", got, spec)
	}
}
