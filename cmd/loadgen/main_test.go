package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlanOnlyDeterministic renders the same plan twice: the artifacts
// must be byte-identical, so a digest names one schedule.
func TestPlanOnlyDeterministic(t *testing.T) {
	dir := t.TempDir()
	var plans [2][]byte
	for i := range plans {
		path := filepath.Join(dir, fmt.Sprintf("plan%d.json", i))
		args := []string{"-plan-only", "-seed", "7", "-requests", "24", "-cells", "10",
			"-overload-requests", "12", "-overload-named", "swim,compress",
			"-phases", "cold,warm,overload", "-out", path}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "24 base + 12 overload requests over 10 cells") {
			t.Fatalf("plan summary:\n%s", stdout.String())
		}
		var err error
		if plans[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plans[0], plans[1]) {
		t.Fatalf("two -plan-only runs rendered different artifacts:\n%s\n---\n%s", plans[0], plans[1])
	}
	if !bytes.Contains(plans[0], []byte(`"plan_only": true`)) {
		t.Fatalf("plan artifact not marked plan-only:\n%s", plans[0])
	}
}

// TestVerify loads the committed traffic artifact through the strict
// envelope, and refuses another schema's artifact by name.
func TestVerify(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join("..", "..", "BENCH_loadgen.json")
	if err := run([]string{"-verify", path}, &stdout, &stderr); err != nil {
		t.Fatalf("verify %s: %v", path, err)
	}
	if !strings.Contains(stdout.String(), "ok (selcache-loadgen/v1") {
		t.Fatalf("verify output:\n%s", stdout.String())
	}

	err := run([]string{"-verify", filepath.Join("..", "..", "CORPUS_smoke.json")}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `schema "selcache-corpus/v1", want "selcache-loadgen/v1"`) {
		t.Fatalf("verify of a corpus artifact = %v, want a schema mismatch", err)
	}
}

// TestRunFlagErrors pins the CLI error surface: usage errors return
// instead of sending traffic.
func TestRunFlagErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "plan.json")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"bad flag", []string{"-nonsense"}, "flag provided but not defined"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"bad mix", []string{"-mix", "run=0.5", "-out", out}, "sum to 0.5"},
		{"no addr", []string{"-out", out}, "-addr is required"},
		{"missing verify file", []string{"-verify", filepath.Join(t.TempDir(), "no.json")}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
