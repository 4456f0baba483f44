package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// plainColumnJSON is columnJSON as it was before jsonValues: the values go
// through encoding/json's own []float64 path. It is the reference the
// hand-written decoder is held against.
type plainColumnJSON struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// decodeBoth decodes {"name":"c","values":<values>} into the product type
// and the reference.
func decodeBoth(values []byte) (got columnJSON, gotErr error, want plainColumnJSON, wantErr error) {
	doc := append(append([]byte(`{"name":"c","values":`), values...), '}')
	gotErr = json.Unmarshal(doc, &got)
	wantErr = json.Unmarshal(doc, &want)
	return
}

// requireSameDecode is the differential property: an error on exactly the
// same inputs and, without one, the same nil-ness, length and value bits.
func requireSameDecode(t *testing.T, values []byte) {
	t.Helper()
	got, gotErr, want, wantErr := decodeBoth(values)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("values %.80q: jsonValues error %v, []float64 error %v", values, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if (got.Values == nil) != (want.Values == nil) || len(got.Values) != len(want.Values) {
		t.Fatalf("values %.80q: decoded %d values (nil %v), []float64 %d (nil %v)", values,
			len(got.Values), got.Values == nil, len(want.Values), want.Values == nil)
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("values %.80q: element %d = %v, []float64 %v", values, i, got.Values[i], want.Values[i])
		}
	}
	if got.Name != want.Name {
		t.Fatalf("values %.80q: name %q, []float64 %q", values, got.Name, want.Name)
	}
}

// decodeSeeds are the corners of the accept/reject set, a long array, and
// inputs that close the field early to reach a second "values" key (the
// decoder then writes into a slice that already holds values).
func decodeSeeds() [][]byte {
	var long bytes.Buffer
	long.WriteByte('[')
	for i := 0; i < 100000; i++ {
		if i > 0 {
			long.WriteByte(',')
		}
		fmt.Fprintf(&long, "%d.%02d", i%977-400, i%100)
	}
	long.WriteByte(']')
	seeds := []string{
		`null`, `[]`, `[ ]`, `[null]`, `[1,"2"]`, `[1e999]`, `[-1e999]`, `[-0]`, "[ 1 ,\n2 ]", `[[1]]`, `[1,]`,
		`[1]`, `[1,2,3]`, `[0.1,1e-999,5e-324,1.7976931348623157e308]`, `[1E5,-2.5e-3,0]`,
		`[null,1,null]`, `[true]`, `[1,false]`, `[{"a":[1,2]}]`, `["a,b"]`, `["]"]`, `[1,[2,3],4]`,
		`5`, `"x"`, `{}`, `true`, `[`, `]`, ``, `[1 2]`, `[,1]`, `[01]`, `[.5]`, `[+1]`, `[1.]`, `[NaN]`, `[Infinity]`,
		`[0x10]`, `[1_000]`, `[nul]`, `[nulll]`, "\t[\r\n1\t,\t2\r\n]\t",
		`[12345678901234567890123456789012345678901234567890]`,
		`[0.` + strings.Repeat("0", 400) + `1]`,
		`[1,2,3],"values":[null]`, `[1,2,3],"values":[],"values":[null,null]`, `[1,2],"values":[null,null,null]`,
		`[1,2,3],"values":null`, `[1],"name":5`, `[1],"name":"d","values":[2,3]`,
	}
	out := [][]byte{long.Bytes()}
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDecodeColumnValues feeds arbitrary bytes, as the values of a column,
// to columnJSON and to the plain-[]float64 reference. The seeds run as unit
// tests under plain go test.
func FuzzDecodeColumnValues(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, values []byte) {
		requireSameDecode(t, values)
	})
}

// TestDecodeValuesErrorText pins the text of the two rejections a client
// can see in a 400 body to what a plain []float64 field reports.
func TestDecodeValuesErrorText(t *testing.T) {
	for _, values := range []string{`[1,"2"]`, `[1e999]`, `[1,[2]]`, `[true]`, `[{}]`, `7`, `"x"`, `{}`, `false`} {
		_, gotErr, _, wantErr := decodeBoth([]byte(values))
		if gotErr == nil || wantErr == nil {
			t.Fatalf("%s: errors %v / %v, want both set", values, gotErr, wantErr)
		}
		want := strings.Replace(wantErr.Error(), "plainColumnJSON", "columnJSON", 1)
		if gotErr.Error() != want {
			t.Errorf("%s:\n  got  %s\n  want %s", values, gotErr, want)
		}
	}
}

// TestDecodeValuesDirectCallNeverPanics calls UnmarshalJSON the way
// encoding/json never does — on text it has not validated.
func TestDecodeValuesDirectCallNeverPanics(t *testing.T) {
	for _, s := range decodeSeeds() {
		for cut := 0; cut <= len(s) && cut <= 64; cut++ {
			var v jsonValues
			_ = v.UnmarshalJSON(s[:cut])
			_ = v.UnmarshalJSON(s[len(s)-cut:])
		}
	}
}
