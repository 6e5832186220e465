package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzAgainstEncodingJSON: both instantiations of AppendString and
// AppendFloat emit exactly json.Marshal's bytes, and AppendFloat refuses
// exactly the values json.Marshal refuses.
func FuzzAgainstEncodingJSON(f *testing.F) {
	f.Add("10.7.209.2>193.0.15.129", 71.16029871365963)
	f.Add("<&>\u2028\u2029\x00\x1f\b\f\n\r\t\"\\", 1e-7)
	f.Add("\xff\xc3 é€😀 \xf0\x9f", 1e21)
	f.Add("", math.Copysign(0, -1))
	f.Add("", 5e-324)
	f.Add("", math.NaN())
	f.Add("", math.Inf(-1))
	f.Fuzz(func(t *testing.T, s string, v float64) {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(string %q) = %s, want %s", s, got[1:], want)
		}
		if got := AppendString([]byte("x"), []byte(s)); string(got) != "x"+string(want) {
			t.Errorf("AppendString([]byte %q) = %s, want %s", s, got[1:], want)
		}
		want, err := json.Marshal(v)
		got, ok := AppendFloat([]byte("x"), v)
		if ok != (err == nil) || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal gives %s, %v", v, got[1:], ok, want, err)
		}
	})
}
