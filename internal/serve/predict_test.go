package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// predictBody is the POST /v1/predict payload as encoding/json reads it:
// each input a flat row-major [H*W*C] sample. It is the reference
// decodeInputs is held to.
type predictBody struct {
	Inputs [][]float64 `json:"inputs"`
}

// benchInputs is the 8-input /v1/predict batch of the benchmark
// substrate (mnistlike 8×8×1, seed 7), marshaled the way its client
// marshals it, and the training set the substrate's clients hold.
func benchInputs(tb testing.TB) (body []byte, train *data.Dataset) {
	tb.Helper()
	train, test := data.Generate(data.MNISTLike(8, 20), 7)
	x, _ := test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	per := x.Len() / x.Dim(0)
	inputs := make([][]float64, x.Dim(0))
	for i := range inputs {
		inputs[i] = x.Data()[i*per : (i+1)*per]
	}
	body, err := json.Marshal(map[string]any{"inputs": inputs})
	if err != nil {
		tb.Fatal(err)
	}
	return body, train
}

// FuzzPredictBody holds decodeInputs to encoding/json: a body it accepts
// json.Unmarshal accepts too, with as many rows and the same float bits
// in each, so a body encoding/json rejects it rejects as well. It may
// reject more (rejectedBodies lists what). The second argument is the
// number of values per input.
func FuzzPredictBody(f *testing.F) {
	bench, _ := benchInputs(f)
	var indented bytes.Buffer
	if err := json.Indent(&indented, bench, "\r\n", "\t"); err != nil {
		f.Fatal(err)
	}
	// The bench's compact encoder output, indented, Python's json.dumps
	// spacing, any JSON whitespace, and every number form RFC 8259
	// allows. Each must decode, or the property below holds of it
	// vacuously.
	type seed struct {
		body []byte
		want uint8
	}
	valid := []seed{{bench, 64}, {indented.Bytes(), 64}}
	for _, body := range []string{
		`{"inputs":[[0,1]]}`,
		`{"inputs": [[0.0, 0.0]]}`,
		" \t\r\n{ \"inputs\" : [ [ 1 , 2 ] , [3,4] ] } \n",
		`{"inputs":[[-0,1e-07]]}`,
		`{"inputs":[[5e-324,1.7976931348623157e308]]}`,
		`{"inputs":[[-1.5E+3,2e-400]]}`,
		`{"inputs":[[10.25e1,-9876543210.0123456789]]}`,
	} {
		valid = append(valid, seed{[]byte(body), 2})
	}
	for _, tc := range valid {
		if _, err := decodeInputs(tc.body, int(tc.want), 1, 1); err != nil {
			f.Fatalf("decodeInputs(%.40q…): %v", tc.body, err)
		}
		f.Add(tc.body, tc.want)
	}
	for _, tc := range rejectedBodies {
		f.Add([]byte(tc.body), uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, want uint8) {
		if want == 0 {
			return
		}
		x, err := decodeInputs(body, int(want), 1, 1)
		if err != nil {
			return
		}
		var ref predictBody
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("decodeInputs accepted %q, which encoding/json rejects: %v", body, err)
		}
		if x.Dims() != 4 || x.Dim(0) != len(ref.Inputs) || x.Dim(1) != int(want) || x.Dim(2) != 1 || x.Dim(3) != 1 {
			t.Fatalf("decodeInputs read %q as shape %v, encoding/json as %d rows", body, x.Shape(), len(ref.Inputs))
		}
		got := x.Data()
		for i, row := range ref.Inputs {
			if len(row) != int(want) {
				t.Fatalf("decodeInputs accepted %q, whose input %d has %d values, want %d", body, i, len(row), want)
			}
			for j, v := range row {
				if g := got[i*int(want)+j]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%q: input %d value %d is %v (%#x), encoding/json reads %v (%#x)", body, i, j, g, math.Float64bits(g), v, math.Float64bits(v))
				}
			}
		}
	})
}

// rejectedBodies are bodies decodeInputs refuses at two values per
// input: those encoding/json refuses too, those the handler refused after
// encoding/json read them (wrong row counts and lengths), and those
// encoding/json read and the handler served, which are now 400s.
var rejectedBodies = []struct {
	body string
	// jsonReads is whether json.Unmarshal into predictBody accepts it.
	jsonReads bool
}{
	{`{"inputs":[[1e400,0]]}`, false},
	{`{"inputs":[[-1e400,0]]}`, false},
	{`{"inputs":[[NaN,0]]}`, false},
	{`{"inputs":[[Infinity,0]]}`, false},
	{`{"inputs":[[+1,0]]}`, false},
	{`{"inputs":[[01,0]]}`, false},
	{`{"inputs":[[.5,0]]}`, false},
	{`{"inputs":[[1.,0]]}`, false},
	{`{"inputs":[[1e,0]]}`, false},
	{`{"inputs":[[-,0]]}`, false},
	{`{"inputs":[[0x1,0]]}`, false},
	{`{"inputs":[["1",2]]}`, false},
	{`{"inputs":[[1,0]]}x`, false},
	{`{"inputs":[[1,0]]}{}`, false},
	{`{"inputs":[[1,0]]`, false},
	{`{"inputs":[[1,0]`, false},
	{`{"inputs":[[1,`, false},
	{``, false},
	{`{"inputs":[[1,0],]}`, false},
	{`{"inputs":[[1,0,]]}`, false},
	{`{"inputs":[]}`, true},
	{`{"inputs":[[]]}`, true},
	{`{"inputs":[[1]]}`, true},
	{`{"inputs":[[1,2,3]]}`, true},
	{`{"inputs":[[1,2],[3]]}`, true},
	{`{}`, true},
	{`{"inputs":null}`, true},
	{`{"inputs":[null]}`, true},
	// Served before: encoding/json matches keys case-insensitively,
	// skips unknown keys, keeps the last of repeated ones, and decodes
	// escaped key names and null elements (as 0).
	{`{"Inputs":[[1,2]]}`, true},
	{`{"inputs":[[1,2]],"extra":1}`, true},
	{`{"inputs":[[1,2]],"inputs":[[3,4]]}`, true},
	{`{"\u0069nputs":[[1,2]]}`, true},
	{`{"inputs":[[null,1]]}`, true},
}

// TestDecodeInputsRejects checks that decodeInputs refuses every one of
// rejectedBodies, and which of them encoding/json reads.
func TestDecodeInputsRejects(t *testing.T) {
	for _, tc := range rejectedBodies {
		if _, err := decodeInputs([]byte(tc.body), 2, 1, 1); err == nil {
			t.Errorf("decodeInputs accepted %q", tc.body)
		}
		var ref predictBody
		if err := json.Unmarshal([]byte(tc.body), &ref); (err == nil) != tc.jsonReads {
			t.Errorf("json.Unmarshal(%q) error %v, want accepted=%v", tc.body, err, tc.jsonReads)
		}
	}
}

// TestPredictReplyMatchesWriteJSON pins writePredictions to the bytes
// writeJSON writes for the same reply.
func TestPredictReplyMatchesWriteJSON(t *testing.T) {
	for _, tc := range []struct {
		version uint64
		pred    []int
	}{
		{1, []int{0}},
		{2, []int{3, 9, 0, 12, 7}},
		{math.MaxUint64, []int{math.MaxInt, 1}},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writePredictions(got, tc.version, tc.pred)
		writeJSON(want, http.StatusOK, map[string]any{"version": tc.version, "predictions": tc.pred})
		if got.Code != want.Code || got.Body.String() != want.Body.String() || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("writePredictions wrote %d %q, writeJSON %d %q", got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// BenchmarkPredictHandler times one /v1/predict through the handler, body
// to reply, at the benchmark substrate's architecture (8×8×1 input,
// width 8, depth 2, 10 classes) on the 8-input body its serve_mixed
// workload posts. The model is untrained: the timing does not depend on
// the parameters' values.
func BenchmarkPredictHandler(b *testing.B) {
	body, train := benchInputs(b)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	cfg := core.DefaultConfig(arch)
	cfg.Seed = 7
	sys, err := core.NewSystem(cfg, data.NewCohort(data.PartitionIID(train, 4, rand.New(rand.NewSource(7)))))
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{System: sys, ModelFactory: func() *nn.Model {
		return nn.NewConvNet(arch, rand.New(rand.NewSource(1)))
	}})
	defer s.Drain()
	h := s.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
