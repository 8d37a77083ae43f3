package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selcache/internal/report"
	"selcache/internal/workloads/synth"
)

// TestRunFlagErrors pins the CLI error surface: bad flags, unknown
// selections and stray positional arguments return usage errors instead of
// starting a long sweep.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"bad flag", []string{"-nonsense"}, "flag provided but not defined"},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"unknown family", []string{"-families", "deep/affine/nope/unit"}, "unknown family"},
		{"unknown mechanism", []string{"-mech", "prefetch"}, "unknown mechanism"},
		{"zero kernels", []string{"-n", "0"}, "N 0 < 1"},
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

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if want := len(synth.Families()); len(lines) != want {
		t.Fatalf("-list printed %d families, want %d", len(lines), want)
	}
	if lines[0] != synth.Families()[0].Name() {
		t.Fatalf("-list order differs from enumeration: %q", lines[0])
	}
}

// TestRunSmallCorpusEndToEnd drives the full pipeline through the CLI on a
// tiny corpus: synthesize, sweep, spot-check, write the artifact, and then
// -verify it byte-for-byte from its own recorded parameters.
func TestRunSmallCorpusEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.json")
	args := []string{"-n", "8", "-sample", "3", "-seed", "1",
		"-families", "shallow/affine/small/unit,shallow/mostly-affine/small/strided,medium/irregular/small/spread",
		"-out", out}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstdout:\n%s", err, stdout.String())
	}
	for _, want := range []string{"8 distinct kernels", "oracle 3/3 clean", "corpus: fingerprint ", "wrote "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	art, err := report.Load[report.CorpusJSON](out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kernels != 8 || art.OracleSample != 3 || art.OracleDivergences != 0 {
		t.Fatalf("artifact: %d kernels, oracle %d/%d", art.Kernels, art.OracleDivergences, art.OracleSample)
	}

	stdout.Reset()
	if err := run([]string{"-verify", out}, &stdout, &stderr); err != nil {
		t.Fatalf("verify: %v\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "regenerates byte-identically") {
		t.Fatalf("verify output:\n%s", stdout.String())
	}

	// Tampering with the committed artifact must fail verification even
	// when the file still validates structurally.
	art.Profiles[0].Versions[0].Cycles++
	if err := report.WriteFile(out, art); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", out}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "differs from committed") {
		t.Fatalf("verify of tampered artifact = %v", err)
	}
}

// TestRunEstimateEndToEnd drives the estimator-accuracy pipeline through
// the CLI on a tiny corpus, then -verify re-scores it byte-for-byte — the
// verify path must sniff the estimate schema from the same flag the corpus
// artifact uses.
func TestRunEstimateEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "estimate.json")
	args := []string{"-estimate", "-n", "8", "-seed", "1",
		"-families", "shallow/affine/small/unit,shallow/mostly-affine/small/strided,medium/irregular/small/spread",
		"-out", out}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstdout:\n%s", err, stdout.String())
	}
	for _, want := range []string{"8 distinct kernels", "estimate: verdicts ", "L1 mean|err| ", "estimate: fingerprint ", "wrote "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	art, err := report.Load[report.EstimateJSON](out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Kernels != 8 || art.Exact+art.Bounded+art.Declined != 8 {
		t.Fatalf("artifact: %d kernels, verdicts %d/%d/%d", art.Kernels, art.Exact, art.Bounded, art.Declined)
	}

	stdout.Reset()
	if err := run([]string{"-verify", out}, &stdout, &stderr); err != nil {
		t.Fatalf("verify: %v\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "regenerates byte-identically") {
		t.Fatalf("verify output:\n%s", stdout.String())
	}

	// A tampered accuracy number must fail verification even though the
	// file still validates structurally.
	art.Overall[0].MaxAbsErrPct += art.Overall[0].MeanAbsErrPct + 1
	if err := report.WriteFile(out, art); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", out}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "differs from committed") {
		t.Fatalf("verify of tampered artifact = %v", err)
	}
}

// TestVerifyComparesRawBytes pins that -verify compares the regenerated
// artifact against the file's own bytes: a file that decodes to the same
// values but carries an unknown field, or lacks the trailing newline the
// encoding ends with, must fail, and the clean file must pass.
func TestVerifyComparesRawBytes(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "energy.json")
	args := []string{"-energy", "-n", "3", "-seed", "1",
		"-families", "shallow/affine/small/unit,medium/irregular/small/spread", "-out", clean}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstdout:\n%s", err, stdout.String())
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", clean}, &stdout, &stderr); err != nil {
		t.Fatalf("verify of the clean artifact: %v", err)
	}
	for _, tc := range []struct{ name, data, want string }{
		{"unknown field", strings.Replace(string(raw), "{\n", "{\n  \"stale_field\": 42,\n", 1), "unknown field"},
		{"no trailing newline", strings.TrimSuffix(string(raw), "\n"), "differs from committed"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-verify", path}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verify = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// verifyCommitted regenerates one checked-in artifact at the repo root
// from its own header — the `make artifacts` gate, kept in `go test` so
// tier-1 alone catches drift.
func verifyCommitted(t *testing.T, file string) {
	t.Helper()
	if testing.Short() {
		t.Skip("committed artifact regeneration is a full smoke-corpus sweep")
	}
	path := filepath.Join("..", "..", file)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed artifact missing: %v", err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-verify", path}, &stdout, &stderr); err != nil {
		t.Fatalf("verify: %v\nstdout:\n%s", err, stdout.String())
	}
}

func TestVerifyCommittedSmokeArtifact(t *testing.T)    { verifyCommitted(t, "CORPUS_smoke.json") }
func TestVerifyCommittedEstimateArtifact(t *testing.T) { verifyCommitted(t, "ESTIMATE_smoke.json") }
func TestVerifyCommittedEnergyArtifact(t *testing.T)   { verifyCommitted(t, "ENERGY_smoke.json") }
