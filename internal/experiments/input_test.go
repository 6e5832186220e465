package experiments

import "testing"

// Regression for the late-crash bug: an -input listing no usable path used
// to log.Fatal from inside cmd/ihr's ingest goroutine, killing the server
// after it had started listening. parseInputs must reject it as a flag
// error instead, so Inputs.Source refuses it before any listener opens.
func TestParseInputsRejectsEmptyLists(t *testing.T) {
	for _, bad := range []string{"", ",", " , ", ",,,"} {
		if paths, err := parseInputs(bad); err == nil {
			t.Errorf("parseInputs(%q) = %v, want error", bad, paths)
		}
	}
	paths, err := parseInputs(" a.ndjson , ,b.ndjson.gz")
	if err != nil {
		t.Fatalf("parseInputs(valid) error: %v", err)
	}
	if len(paths) != 2 || paths[0] != "a.ndjson" || paths[1] != "b.ndjson.gz" {
		t.Errorf("parseInputs = %v, want [a.ndjson b.ndjson.gz]", paths)
	}
}
