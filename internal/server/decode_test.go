package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The request decoder is pinned against encoding/json itself: on any
// body, whatever the decoder accepts json.Decoder.Decode accepts too,
// with bit-identical values, and whatever json.Decoder.Decode accepts
// the decoder accepts too — unless a sample breaks the strict
// [number, number] (or, for real_input, number) shape, the decoder's
// one deliberate tightening.

// probeViolations counts samples, seen by the probe types below, that
// break the strict sample shape. Fuzz inputs run one at a time within a
// process, so a plain counter is enough.
var probeViolations int

// probePairs stands in for []Complex: encoding/json hands it every
// occurrence of the field's value, duplicate keys and later-truncated
// batch entries included, so no violating sample goes unseen.
type probePairs struct{}

func (*probePairs) UnmarshalJSON(b []byte) error {
	probeArray(b, func(el json.RawMessage) bool {
		var pair []json.RawMessage
		return json.Unmarshal(el, &pair) == nil && len(pair) == 2 &&
			isNumberLit(pair[0]) && isNumberLit(pair[1])
	})
	return nil
}

// probeReals stands in for []float64.
type probeReals struct{}

func (*probeReals) UnmarshalJSON(b []byte) error {
	probeArray(b, isNumberLit)
	return nil
}

func probeArray(b []byte, ok func(json.RawMessage) bool) {
	var els []json.RawMessage
	if json.Unmarshal(b, &els) != nil {
		return // null, or not an array: the real decode judges it
	}
	for _, el := range els {
		if !ok(el) {
			probeViolations++
		}
	}
}

func isNumberLit(b json.RawMessage) bool {
	b = bytes.TrimSpace(b)
	return len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9')
}

type probeSpec struct {
	Input       probePairs `json:"input,omitempty"`
	RealInput   probeReals `json:"real_input,omitempty"`
	RealInverse probePairs `json:"real_inverse,omitempty"`
	Inverse     bool       `json:"inverse,omitempty"`
	NoReorder   bool       `json:"no_reorder,omitempty"`
}

type probeFFTRequest struct {
	probeSpec
	Transforms []probeSpec `json:"transforms,omitempty"`
}

type probeFFT2DRequest struct {
	Rows    int        `json:"rows"`
	Cols    int        `json:"cols"`
	Depth   int        `json:"depth,omitempty"`
	Input   probePairs `json:"input"`
	Inverse bool       `json:"inverse,omitempty"`
}

// strictSamples reports whether every sample of every sample field in
// data, as encoding/json matches fields, has the strict shape.
func strictSamples(data []byte, probe any) bool {
	probeViolations = 0
	_ = json.NewDecoder(bytes.NewReader(data)).Decode(probe)
	return probeViolations == 0
}

func samePairs(t *testing.T, what string, got []complex128, want []Complex) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, encoding/json decodes %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(w[0]) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(w[1]) {
			t.Fatalf("%s sample %d: %v, encoding/json decodes %v", what, i, got[i], w)
		}
	}
}

func sameSpec(t *testing.T, what string, got transform, want TransformSpec) {
	t.Helper()
	samePairs(t, what+".input", got.input, want.Input)
	samePairs(t, what+".real_inverse", got.realInverse, want.RealInverse)
	if len(got.realInput) != len(want.RealInput) {
		t.Fatalf("%s.real_input: %d samples, encoding/json decodes %d", what, len(got.realInput), len(want.RealInput))
	}
	for i, w := range want.RealInput {
		if math.Float64bits(got.realInput[i]) != math.Float64bits(w) {
			t.Fatalf("%s.real_input sample %d: %v, encoding/json decodes %v", what, i, got.realInput[i], w)
		}
	}
	if got.inverse != want.Inverse || got.noReorder != want.NoReorder {
		t.Fatalf("%s flags inverse=%v no_reorder=%v, encoding/json decodes %v %v",
			what, got.inverse, got.noReorder, want.Inverse, want.NoReorder)
	}
}

func checkFFTDecode(t *testing.T, data []byte) {
	var want FFTRequest
	jerr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	b := getReqBuf()
	defer b.release()
	top, err := decodeFFT(b, data)
	if err != nil {
		if jerr == nil && strictSamples(data, &probeFFTRequest{}) {
			t.Fatalf("decoder rejects a body encoding/json accepts (%v): %q", err, data)
		}
		return
	}
	if jerr != nil {
		t.Fatalf("decoder accepts a body encoding/json rejects (%v): %q", jerr, data)
	}
	sameSpec(t, "inline", b.transform(top), want.TransformSpec)
	if len(b.specs) != len(want.Transforms) {
		t.Fatalf("%d transforms, encoding/json decodes %d: %q", len(b.specs), len(want.Transforms), data)
	}
	for i, w := range want.Transforms {
		sameSpec(t, "transforms", b.transform(b.specs[i]), w)
	}
}

func checkFFT2DDecode(t *testing.T, data []byte) {
	var want FFT2DRequest
	jerr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	b := getReqBuf()
	defer b.release()
	got, err := decodeFFT2D(b, data)
	if err != nil {
		if jerr == nil && strictSamples(data, &probeFFT2DRequest{}) {
			t.Fatalf("decoder rejects a body encoding/json accepts (%v): %q", err, data)
		}
		return
	}
	if jerr != nil {
		t.Fatalf("decoder accepts a body encoding/json rejects (%v): %q", jerr, data)
	}
	if got.rows != want.Rows || got.cols != want.Cols || got.depth != want.Depth || got.inverse != want.Inverse {
		t.Fatalf("decoded %+v, encoding/json decodes rows=%d cols=%d depth=%d inverse=%v",
			got, want.Rows, want.Cols, want.Depth, want.Inverse)
	}
	samePairs(t, "input", b.complexes(got.input), want.Input)
}

// nested wraps an n-deep array nest as an unknown key's value, so the
// whole body nests n+1 deep.
func nested(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"input":[[1,2]]}`
}

// decodeSeeds are the seed corpus of both fuzz targets; a plain go test
// runs each of them through both checks.
func decodeSeeds(tb testing.TB) []string {
	rng := rand.New(rand.NewSource(1))
	pairs := make([]Complex, 16)
	reals := make([]float64, 16)
	for i := range pairs {
		pairs[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
		reals[i] = rng.NormFloat64()
	}
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return string(data)
	}
	return []string{
		// Bodies shaped like the benchmark's and the load generator's.
		marshal(FFTRequest{TransformSpec: TransformSpec{Input: pairs}}),
		marshal(FFTRequest{Transforms: []TransformSpec{
			{Input: pairs, Inverse: true}, {RealInput: reals}, {RealInverse: pairs[:9]}, {Input: pairs[:8], NoReorder: true},
		}}),
		marshal(FFT2DRequest{Rows: 4, Cols: 4, Input: pairs}),
		marshal(FFT2DRequest{Rows: 2, Cols: 2, Depth: 4, Input: pairs, Inverse: true}),
		// Case folding and escaped keys.
		`{"INPUT":[[1,2]],"Inverse":true}`,
		`{"tranſforms":[{"input":[[1,2]]}]}`,
		`{"\u0069nput":[[1,2]],"\u0069NVERSE":true,"\ud800":1,"\ud83d\ude00":2}`,
		`{"input":[[1,2]],"Rows":1,"COLS":1}`,
		`{"input":[[1,2]],"rows":1,"cols":1,"Key":1,"röws":7}`,
		// Nested unknown keys and duplicate keys.
		`{"x":{"y":[1,{"z":null},"s\"\\é",true,false,-1.5e+3]},"input":[[1,2]],"rows":1,"cols":1}`,
		`{"input":[[1,2]],"input":[[3,4],[5,6]],"rows":2,"rows":1,"cols":2}`,
		`{"transforms":[{"inverse":true,"input":[[1,0]]},{}],"transforms":[{}]}`,
		`{"transforms":[{"input":[[1,0]]},{"input":[[2,0]]}],"transforms":[null],"transforms":[{},{}]}`,
		// null fields and a null body.
		`{"input":null,"inverse":null,"transforms":null,"rows":null}`,
		`{"input":[[1,2]],"input":null,"real_input":[1,2],"transforms":[null,{"input":[[1,2]]}]}`,
		`null`,
		// Number edge cases.
		`{"input":[[-0,5e-324]],"real_input":[-0,5e-324,1E2],"rows":-0,"cols":1}`,
		`{"input":[[1e309,0]]}`,
		`{"real_input":[1e-400]}`,
		`{"rows":1.0,"cols":1,"input":[[1,2]]}`,
		`{"rows":9223372036854775808,"cols":1}`,
		// Samples the decoder rejects and encoding/json accepts.
		`{"input":[[1]]}`,
		`{"input":[[1,2,3]]}`,
		`{"input":[null],"real_input":[null]}`,
		// Trailing bytes, type errors, malformed JSON.
		`{"input":[[1,2]],"rows":1,"cols":1} trailing`,
		`{"input":{"a":1}}`,
		`{"inverse":1}`,
		`[1,2]`,
		`{"input":[[1,2],]}`,
		"{\"a\":\"\x01\"}",
		"",
		// Nesting at and past encoding/json's depth limit.
		nested(maxNesting - 1),
		nested(maxNesting),
	}
}

func FuzzDecodeFFTRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkFFTDecode)
}

func FuzzDecodeFFT2DRequest(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkFFT2DDecode)
}

// TestDecodeStrictSamples — every sample the decoder refuses, it names.
func TestDecodeStrictSamples(t *testing.T) {
	cases := map[string]string{
		`{"input":[[1,2],[1]]}`:                     "input sample 1",
		`{"input":[[1,2,3]]}`:                       "input sample 0",
		`{"real_inverse":[[1,0],[2,0],null]}`:       "real_inverse sample 2",
		`{"real_input":[1,2,null]}`:                 "real_input sample 2",
		`{"transforms":[{},{"input":[[1,"2"]]}]}`:   "transforms[1].input sample 0",
		`{"input":[[1,2],[1e309,0]]}`:               "input sample 1: number 1e309 overflows float64",
		`{"x":` + strings.Repeat("[", maxNesting+1): "exceeded max depth",
	}
	for body, want := range cases {
		b := getReqBuf()
		_, err := decodeFFT(b, []byte(body))
		b.release()
		if err == nil || !strings.Contains(err.Error(), want) {
			short := body
			if len(short) > 60 {
				short = short[:60] + "..."
			}
			t.Errorf("%s: error %v, want it to name %q", short, err, want)
		}
	}
}

// TestDecodeAllocs — decoding a 1024-sample body into a warm pooled
// buffer allocates nothing: no []Complex, no per-number strings.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts, so pooled buffers refill")
	}
	rng := rand.New(rand.NewSource(3))
	pairs := make([]Complex, 1024)
	for i := range pairs {
		pairs[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
	}
	body, err := json.Marshal(FFTRequest{TransformSpec: TransformSpec{Input: pairs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFFTBody(body); err != nil {
		t.Fatal(err)
	}
	run := func() { _, _ = DecodeFFTBody(body) }
	// A GC cycle inside the window empties the pool once; a real
	// per-call allocation repeats in the retry too.
	if a := testing.AllocsPerRun(50, run); a > 0 {
		if a = testing.AllocsPerRun(50, run); a > 0 {
			t.Fatalf("decoding a 1024-sample body allocates %.1f times per run, want 0", a)
		}
	}
}
