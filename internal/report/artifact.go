package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Artifact is a committed JSON result file: CorpusJSON, EstimateJSON,
// EnergyJSON or LoadgenJSON. The envelope in this file owns what they
// share — the schema id, the one deterministic encoding, validate-on-write
// and the strict load — so each type's Validate checks only its own
// invariants.
type Artifact interface {
	// SchemaID is the id the type is written and loaded under; a file
	// whose schema field differs is rejected. Bump the suffix on any
	// incompatible change.
	SchemaID() string
	Validate() error
}

// Encode validates a and renders it the one way artifacts are committed:
// two-space indented JSON with a trailing newline. Equal artifacts encode
// to equal bytes, which is what lets -verify gates compare a regenerated
// artifact against a committed file byte for byte.
func Encode(a Artifact) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := checkSchema(data, a); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", a.SchemaID(), err)
	}
	return append(data, '\n'), nil
}

// WriteFile encodes a to path; an invalid artifact is never written.
func WriteFile(path string, a Artifact) error {
	data, err := Encode(a)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads the artifact at path strictly as a T: the schema field must
// be T's, every field must be one T declares, nothing may follow the
// object, and T's invariants must hold.
func Load[T any, PT interface {
	*T
	Artifact
}](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := PT(new(T))
	if err := checkSchema(data, a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(a); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", path, a.SchemaID(), err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", path, a.SchemaID(), err)
	}
	return a, nil
}

// checkSchema requires data to be exactly one JSON object whose schema
// field is a's.
func checkSchema(data []byte, a Artifact) error {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return err
	}
	if head.Schema != a.SchemaID() {
		return fmt.Errorf("schema %q, want %q", head.Schema, a.SchemaID())
	}
	return nil
}
