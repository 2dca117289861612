package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// FuzzScenarioCodec: decoding any bytes never panics; every refusal of
// a JSON object, by DecodeScenario or by Validate, is a *FieldError
// naming a field; and a decoded scenario encodes to a document that
// decodes to it again.
func FuzzScenarioCodec(f *testing.F) {
	for _, s := range []Scale{Tiny, Quick, Full} {
		for _, base := range []Scenario{EvaluationScenario(s), ChurnScenario(s), FaultsScenario(s),
			FailoverScenario(s), ScaleScenario(s), ShardBenchScenario(s)} {
			data, err := json.Marshal(base)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, doc := range []string{
		`{"Fabric":{"ISLIPIters":1}}`,
		`{"Topology":{"Class":"dragonfly","A":16,"P":8,"H":8}}`,
		`{"Fabric":{"SwitchModel":"voq-mwm","Shards":-2}}`,
		`{"Trace":4,"Fabric":{"Shards":2}}`,
		`{"Load":1e400}`, `{"Bogus":1}`, `{"Topology":5}`, `null`, `[1]`, `{`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(data, Scenario{})
		decoded := err == nil
		if decoded {
			err = sc.Validate()
		}
		if err != nil {
			var fe *FieldError
			switch {
			case errors.As(err, &fe):
				for _, field := range fe.Fields {
					if fe.Reason != "unknown field" && !knownField(field) {
						t.Fatalf("refusal %q names %q, which is no field of Scenario", err, field)
					}
				}
			case isObject(data):
				t.Fatalf("refusal of a JSON object names no field: %v", err)
			}
		}
		if !decoded {
			return
		}
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("decoded scenario does not encode: %v", err)
		}
		back, err := DecodeScenario(enc, Scenario{})
		if err != nil || back != sc {
			t.Fatalf("decode(encode(s)) = %+v, %v; want %+v", back, err, sc)
		}
	})
}

// knownField reports whether path names a field of Scenario.
func knownField(path string) bool {
	t := reflect.TypeOf(Scenario{})
	for _, name := range strings.Split(path, ".") {
		if t.Kind() != reflect.Struct {
			return false
		}
		f, ok := t.FieldByName(name)
		if !ok {
			return false
		}
		t = f.Type
	}
	return true
}

// isObject reports whether data is one well-formed JSON object.
func isObject(data []byte) bool {
	return json.Valid(data) && bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{"))
}

// TestDecodeScenarioPatches: a document decodes over its base, fields
// it leaves out keep the base's values, classes and switch models read
// by name, and a change to an axis field is refused while restating the
// base's value is not.
func TestDecodeScenarioPatches(t *testing.T) {
	base := ScaleScenario(Tiny)
	sc, err := DecodeScenario([]byte(`{"Fabric": {"ISLIPIters": 1}, "Topology": {"Class": "fattree", "K": 4}}`), base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Fabric.ISLIPIters, want.Topology.Class, want.Topology.K = 1, topology.FatTree, 4
	if sc != want {
		t.Errorf("decoded %+v, want %+v", sc, want)
	}
	if _, err := DecodeScenario([]byte(`{"Topology": {"K": 4}}`), base, "Topology"); err == nil || !strings.Contains(err.Error(), "Topology") {
		t.Errorf("axis change: err = %v, want a refusal naming Topology", err)
	}
	if _, err := DecodeScenario([]byte(`{"Topology": {"K": 0}, "Load": 0}`), base, "Topology", "Load"); err != nil {
		t.Errorf("restating the base's axis values: %v", err)
	}
}
