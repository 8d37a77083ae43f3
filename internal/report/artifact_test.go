package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validEnergy() *EnergyJSON {
	e := &EnergyJSON{Schema: EnergySchema, CorpusHeader: validHeader(2)}
	for _, policy := range []string{"lru", "ehc"} {
		for _, memo := range []bool{false, true} {
			c := EnergyCombo{
				Policy: policy, WayMemo: memo, Cycles: 1000, L1Misses: 10, L2Misses: 4,
				L1TagPJ: 100, L1DataPJ: 200, DRAMPJ: 700,
			}
			if memo {
				c.L1TagPJ, c.MemoPJ = 60, 20
				c.WayMemoHits, c.TagReadsAvoided = 5, 8
			}
			c.TotalPJ = c.L1TagPJ + c.L1DataPJ + c.MemoPJ + c.DRAMPJ
			e.Combos = append(e.Combos, c)
		}
	}
	return e
}

func validEstimate() *EstimateJSON {
	acc := []EstimateVersionAccuracy{{Version: "base", Kernels: 1, MeanAbsErrPct: 2, MaxAbsErrPct: 3, BiasPct: -1}}
	return &EstimateJSON{
		Schema:         EstimateSchema,
		CorpusHeader:   validHeader(2),
		Exact:          1,
		Declined:       1,
		DeclineReasons: []string{"indirect subscript"},
		Overall:        acc,
		Classes: []EstimateClassAccuracy{{
			Class: "shallow/affine/small/unit", Kernels: 2, Exact: 1, Declined: 1, Versions: acc,
		}},
	}
}

func validLoadgen() *LoadgenJSON {
	return &LoadgenJSON{
		Schema:     LoadgenSchema,
		Seed:       1,
		Clients:    2,
		Cells:      4,
		ZipfS:      1.2,
		Mix:        map[string]float64{"run": 0.6, "sweep": 0.2, "estimate": 0.2},
		PlanDigest: strings.Repeat("cd", 32),
		BodyHashes: map[string]string{"run|swim|base|bypass": strings.Repeat("ef", 32)},
		Phases: []LoadgenPhase{{
			Name:              "overload",
			Requests:          10,
			ByStatus:          map[string]uint64{"200": 7, "429": 3},
			ByTier:            map[string]uint64{"computed": 7},
			Shed:              3,
			RetryAfterSeen:    true,
			WallNanos:         5e8,
			RequestsPerSecond: 20,
			P50Millis:         3,
			P99Millis:         40,
		}},
	}
}

// validateCase is one mutation of a valid artifact and a phrase the
// rejection must contain.
type validateCase[T any] struct {
	name string
	mut  func(*T)
	want string
}

func runValidateCases[T any, PT interface {
	*T
	Artifact
}](t *testing.T, valid func() PT, cases []validateCase[T]) {
	t.Helper()
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := valid()
			tc.mut(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("invalid artifact accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEnergyJSONValidate(t *testing.T) {
	runValidateCases(t, validEnergy, []validateCase[EnergyJSON]{
		{"no families", func(e *EnergyJSON) { e.Families = nil }, "families"},
		{"missing combo", func(e *EnergyJSON) { e.Combos = e.Combos[:3] }, "3 combos, want 4"},
		{"combos swapped", func(e *EnergyJSON) { e.Combos[0], e.Combos[2] = e.Combos[2], e.Combos[0] }, "combo 0 is (ehc"},
		{"memo order", func(e *EnergyJSON) { e.Combos[0], e.Combos[1] = e.Combos[1], e.Combos[0] }, "want (lru, waymemo=false)"},
		{"pJ sum", func(e *EnergyJSON) { e.Combos[2].DRAMPJ++ }, "components sum to"},
		{"empty combo", func(e *EnergyJSON) { e.Combos[1] = EnergyCombo{Policy: "lru", WayMemo: true} }, "is empty"},
		{"memo on, no activity", func(e *EnergyJSON) { e.Combos[3].WayMemoHits = 0 }, "way memo on but no memo activity"},
		{"memo off, activity", func(e *EnergyJSON) { e.Combos[2].TagReadsAvoided = 1 }, "way memo off but reports memo activity"},
		{"memo perturbed cycles", func(e *EnergyJSON) { e.Combos[3].Cycles++ }, "way memo perturbed ehc timing"},
		{"memo perturbed misses", func(e *EnergyJSON) { e.Combos[1].L2Misses++ }, "way memo perturbed lru timing"},
	})
}

func TestEstimateJSONValidate(t *testing.T) {
	runValidateCases(t, validEstimate, []validateCase[EstimateJSON]{
		{"bad fingerprint", func(e *EstimateJSON) { e.CorpusFingerprint = "abc" }, "fingerprint"},
		{"verdicts exceed kernels", func(e *EstimateJSON) { e.Bounded = 1 }, "do not sum to 2 kernels"},
		{"negative verdict", func(e *EstimateJSON) { e.Exact, e.Bounded = 2, -1 }, "do not sum"},
		{"class verdicts", func(e *EstimateJSON) { e.Classes[0].Exact = 2 }, "class \"shallow/affine/small/unit\" verdicts"},
		{"declines without reasons", func(e *EstimateJSON) { e.DeclineReasons = nil }, "no decline reasons"},
		{"class kernel cover", func(e *EstimateJSON) {
			e.Kernels, e.Requested, e.Exact = 3, 3, 2
		}, "classes cover 2 kernels, header says 3"},
		{"mean above max", func(e *EstimateJSON) {
			e.Overall = []EstimateVersionAccuracy{{Version: "base", MeanAbsErrPct: 4, MaxAbsErrPct: 3}}
		}, "overall version \"base\" inconsistent errors"},
		{"bias above mean", func(e *EstimateJSON) {
			e.Classes[0].Versions = []EstimateVersionAccuracy{{Version: "base", MeanAbsErrPct: 1, MaxAbsErrPct: 3, BiasPct: -2}}
		}, "inconsistent errors"},
		{"negative error", func(e *EstimateJSON) {
			e.Overall = []EstimateVersionAccuracy{{Version: "base", MeanAbsErrPct: -1}}
		}, "negative error"},
		{"unnamed version", func(e *EstimateJSON) {
			e.Overall = []EstimateVersionAccuracy{{}}
		}, "unnamed version"},
		{"unsorted classes", func(e *EstimateJSON) {
			extra := e.Classes[0]
			extra.Class = "aaa/first"
			e.Classes = append(e.Classes, extra)
			e.Kernels, e.Requested, e.Exact = 4, 4, 2
			e.Declined = 2
		}, "not sorted"},
	})
}

func TestLoadgenJSONValidate(t *testing.T) {
	runValidateCases(t, validLoadgen, []validateCase[LoadgenJSON]{
		{"mix sum", func(l *LoadgenJSON) { l.Mix["run"] = 0.5 }, "mix fractions sum to 0.89"},
		{"mix fraction range", func(l *LoadgenJSON) { l.Mix["sweep"] = 1.2 }, "out of [0,1]"},
		{"empty mix", func(l *LoadgenJSON) { l.Mix = nil }, "empty class mix"},
		{"zipf", func(l *LoadgenJSON) { l.ZipfS = 1 }, "zipf_s"},
		{"digest", func(l *LoadgenJSON) { l.PlanDigest = "abc" }, "plan digest"},
		{"body hash mismatch", func(l *LoadgenJSON) { l.BodyHashMismatches = 1 }, "body-hash mismatches"},
		{"quantile order", func(l *LoadgenJSON) { l.Phases[0].P99Millis = 2 }, "quantiles p50=3 p99=2"},
		{"negative p50", func(l *LoadgenJSON) { l.Phases[0].P50Millis = -1 }, "quantiles"},
		{"shed without Retry-After", func(l *LoadgenJSON) { l.Phases[0].RetryAfterSeen = false }, "not every 429 carried Retry-After"},
		{"status sum", func(l *LoadgenJSON) { l.Phases[0].ByStatus["200"] = 6 }, "status counts sum to 9, want 10"},
		{"zero wall", func(l *LoadgenJSON) { l.Phases[0].WallNanos = 0 }, "wall time"},
		{"duplicate phase", func(l *LoadgenJSON) { l.Phases = append(l.Phases, l.Phases[0]) }, "duplicate phase"},
		{"no phases", func(l *LoadgenJSON) { l.Phases = nil }, "no phases"},
	})

	// A plan carries schedule counts only: no measurements are required.
	plan := validLoadgen()
	plan.PlanOnly = true
	plan.Phases[0] = LoadgenPhase{Name: "cold", Requests: 10}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan-only artifact rejected: %v", err)
	}
}

// TestArtifactRoundTrip writes every artifact type through the envelope
// and loads it back: the value survives, the bytes re-encode identically,
// an invalid artifact is never written, and the strict load rejects an
// unknown field, trailing data and a missing file.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name       string
		art        Artifact
		load       func(string) (Artifact, error)
		invalidate func(Artifact)
	}{
		{"corpus", validCorpus(), func(p string) (Artifact, error) { return Load[CorpusJSON](p) },
			func(a Artifact) { a.(*CorpusJSON).Profiles = nil }},
		{"estimate", validEstimate(), func(p string) (Artifact, error) { return Load[EstimateJSON](p) },
			func(a Artifact) { a.(*EstimateJSON).Exact++ }},
		{"energy", validEnergy(), func(p string) (Artifact, error) { return Load[EnergyJSON](p) },
			func(a Artifact) { a.(*EnergyJSON).Combos[0].TotalPJ++ }},
		{"loadgen", validLoadgen(), func(p string) (Artifact, error) { return Load[LoadgenJSON](p) },
			func(a Artifact) { a.(*LoadgenJSON).Phases = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := WriteFile(path, tc.art); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(raw, []byte("}\n")) || !bytes.HasPrefix(raw, []byte("{\n  \"schema\": ")) {
				t.Fatalf("encoding is not indented JSON led by the schema with a trailing newline:\n%s", raw)
			}
			got, err := tc.load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.art) {
				t.Fatalf("round trip changed the artifact:\n got %+v\nwant %+v", got, tc.art)
			}
			again, err := Encode(got)
			if err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("re-encoding differs from the written bytes (err %v)", err)
			}

			for _, bad := range []struct{ name, data, want string }{
				{"unknown field", strings.Replace(string(raw), "{\n", "{\n  \"stale_field\": 42,\n", 1), "unknown field \"stale_field\""},
				{"trailing data", string(raw) + "{}\n", "after top-level value"},
			} {
				p := filepath.Join(dir, tc.name+"-bad.json")
				if err := os.WriteFile(p, []byte(bad.data), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := tc.load(p); err == nil || !strings.Contains(err.Error(), bad.want) {
					t.Errorf("%s: load = %v, want error containing %q", bad.name, err, bad.want)
				}
			}
			if _, err := tc.load(filepath.Join(dir, "missing.json")); err == nil {
				t.Error("loaded a missing artifact")
			}

			tc.invalidate(got)
			if err := WriteFile(path, got); err == nil {
				t.Fatal("WriteFile accepted an invalid artifact")
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, raw) {
				t.Fatal("a refused write touched the file")
			}
		})
	}
}

// TestCommittedArtifactsCrossSchema loads every committed artifact at the
// repo root as its own type — it must re-encode to exactly the committed
// bytes — and as every other type, which must refuse it with an error
// naming both schemas.
func TestCommittedArtifactsCrossSchema(t *testing.T) {
	loaders := map[string]func(string) (Artifact, error){
		CorpusSchema:   func(p string) (Artifact, error) { return Load[CorpusJSON](p) },
		EstimateSchema: func(p string) (Artifact, error) { return Load[EstimateJSON](p) },
		EnergySchema:   func(p string) (Artifact, error) { return Load[EnergyJSON](p) },
		LoadgenSchema:  func(p string) (Artifact, error) { return Load[LoadgenJSON](p) },
	}
	files := map[string]string{
		"CORPUS_smoke.json":   CorpusSchema,
		"ESTIMATE_smoke.json": EstimateSchema,
		"ENERGY_smoke.json":   EnergySchema,
		"BENCH_loadgen.json":  LoadgenSchema,
	}
	for file, own := range files {
		path := filepath.Join("..", "..", file)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed artifact missing: %v", err)
		}
		for schema, load := range loaders {
			a, err := load(path)
			if schema != own {
				if err == nil || !strings.Contains(err.Error(), `schema "`+own+`", want "`+schema+`"`) {
					t.Errorf("%s loaded as %s: err %v, want a schema mismatch naming both", file, schema, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", file, err)
				continue
			}
			if data, err := Encode(a); err != nil || !bytes.Equal(data, raw) {
				t.Errorf("%s does not re-encode to its committed bytes (err %v)", file, err)
			}
		}
	}
}
