package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestListShort pins the -short matrix: three workloads on the base
// machine, both policies and both way-memo settings, with Base and
// PureSoftware once and the three mechanism-driven versions per
// mechanism: 3 × 2 × 2 × (2 + 3×2) = 96 cells. With the 9 interpreter
// checks and a batched-replay check per cell, that is validate -short's
// 201 checks.
func TestListShort(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list", "-short"}, &stdout, &stderr); err != nil {
		t.Fatalf("validate -list -short: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 96 {
		t.Fatalf("-list -short printed %d cells, want 96", len(lines))
	}
	for _, want := range []string{"applu/base/none/base", "tpc-c/selective/victim/base/ehc/memo"} {
		if !strings.Contains(stdout.String(), want+"\n") {
			t.Errorf("-list -short does not list %s", want)
		}
	}
}

// TestSelectorsRejectBadInput: every selector refuses an unknown value
// with an error naming it, before any cell runs.
func TestSelectorsRejectBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mech", "nope"}, `unknown -mech "nope"`},
		{[]string{"-policy", "nope"}, `unknown -policy "nope"`},
		{[]string{"-waymemo", "nope"}, `unknown -waymemo "nope"`},
		{[]string{"-configs", "nope"}, `unknown -configs "nope"`},
		{[]string{"-workloads", "swim,nope"}, `unknown workload "nope"`},
		{[]string{"-nonsense"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append(tc.args, "-list"), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validate %q: error %v, want %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("validate %q printed cells before rejecting its input", tc.args)
		}
	}
}
