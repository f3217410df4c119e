package distrib

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pitex/internal/faultinject"
	"pitex/internal/fixture"
	"pitex/internal/rrindex"
)

// patched returns frame with edit applied and the checksum recomputed, so
// a test reaches the checks that sit behind it.
func patched(frame []byte, edit func(b []byte)) []byte {
	b := bytes.Clone(frame[:len(frame)-crcSize])
	edit(b)
	return seal(b)
}

func mustRequestFrame(t testing.TB, req EstimateRequest) []byte {
	t.Helper()
	b, err := EncodeFrontierRequest(req)
	if err != nil {
		t.Fatalf("EncodeFrontierRequest: %v", err)
	}
	return b
}

func mustResponseFrame(t testing.TB, resp EstimateResponse) []byte {
	t.Helper()
	b, err := EncodeFrontierResponse(resp)
	if err != nil {
		t.Fatalf("EncodeFrontierResponse: %v", err)
	}
	return b
}

// rejectsDamage asserts what holds of every accepted frame: no proper
// prefix of it and no faultinject.CorruptBytes image of it is accepted.
func rejectsDamage(t *testing.T, frame []byte, decode func([]byte) error) {
	t.Helper()
	for n := range frame {
		if decode(frame[:n]) == nil {
			t.Fatalf("accepted a %d-byte frame truncated to %d bytes", len(frame), n)
		}
	}
	if decode(faultinject.CorruptBytes(frame)) == nil {
		t.Fatalf("accepted the corrupt-fault image of a %d-byte frame", len(frame))
	}
}

// FuzzFrontierFrame exercises the two frame decoders on bytes from the
// network. Arbitrary input never panics, and what a decoder builds from
// it is bounded by a small multiple of the input's own length, whatever
// its header declares. An accepted frame is canonical — it re-encodes to
// the same bytes — and fragile: every truncation and the corrupt-fault
// image of it are rejected. The properties FuzzWireDecode held of the
// JSON frontier form hold of the frame: a request that validates is the
// frontier form alone with finite, topic-wide rows, and a response that
// passes the client's check can be gathered positionally — ragged rows,
// foreign or mixed shard ids never get that far.
func FuzzFrontierFrame(f *testing.F) {
	part := func(shard int, hits, theta int64, users int) rrindex.Partial {
		return rrindex.Partial{Shard: shard, Hits: hits, Samples: hits + 1, Contained: 5, Theta: theta, Users: users}
	}
	request := mustRequestFrame(f, EstimateRequest{User: 3, Generation: 1, Frontier: [][]float64{{0.5, 0.5}, {0.25, 0.75}}})
	response := mustResponseFrame(f, EstimateResponse{Generation: 1, Frontier: [][]rrindex.Partial{
		{part(0, 3, 100, 10), part(0, 1, 100, 10)}, {part(1, 0, 50, 5), part(1, 0, 50, 5)}}})
	f.Add(request)
	f.Add(response)
	f.Add(mustRequestFrame(f, EstimateRequest{Frontier: [][]float64{{1}}}))
	f.Add(mustRequestFrame(f, EstimateRequest{User: -1, Generation: math.MaxUint64, Frontier: [][]float64{{0, 1, 0.5}}}))
	// The JSON seeds' malformed shapes: a ragged matrix (2x2 declared over
	// three weights), a row mixing shard ids, a foreign shard, no rows.
	f.Add(patched(request[:len(request)-weightSize], func(b []byte) {}))
	f.Add(mustResponseFrame(f, EstimateResponse{Frontier: [][]rrindex.Partial{
		{part(0, 0, 100, 10), part(0, 0, 100, 10)}, {part(1, 0, 50, 5), part(0, 0, 0, 0)}}}))
	f.Add(mustResponseFrame(f, EstimateResponse{Frontier: [][]rrindex.Partial{{part(0, 0, 100, 10)}, {part(7, 0, 0, 0)}}}))
	f.Add(patched(request[:requestHeader+crcSize], func(b []byte) { le.PutUint32(b[20:], 0) }))
	// What JSON could not say: non-finite values, counts far past the bytes.
	f.Add(patched(request, func(b []byte) { le.PutUint64(b[requestHeader:], math.Float64bits(math.NaN())) }))
	f.Add(patched(response, func(b []byte) { le.PutUint64(b[responseHeader+48:], math.Float64bits(math.Inf(-1))) }))
	f.Add(patched(response, func(b []byte) { b[responseHeader+56] = 2 }))
	f.Add(patched(request, func(b []byte) { le.PutUint64(b[20:], math.MaxUint64) }))
	f.Add(patched(response, func(b []byte) { le.PutUint32(b[12:], 1<<31); le.PutUint32(b[16:], 1<<31) }))
	f.Add(faultinject.CorruptBytes(request))
	f.Add([]byte(`{"user":3,"generation":1,"frontier":[[0.5,0.5],[0.25,0.75]]}`))
	f.Add([]byte{})
	g := fixture.Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeFrontierRequest(data); err == nil {
			var s FrontierScratch
			rows := req.FrontierRows(&s)
			if built := 8*cap(s.flat) + 24*cap(s.rows); built > 4*len(data) {
				t.Fatalf("a %d-byte request frame decoded into %d bytes", len(data), built)
			}
			if len(rows) == 0 || req.Width() != len(rows) {
				t.Fatalf("accepted request has width %d, %d rows", req.Width(), len(rows))
			}
			if err := req.Validate(g.NumTopics()); err == nil {
				if req.Probe.Validate() == nil {
					t.Fatalf("validated request is not exactly one form: %+v", req)
				}
				for _, row := range rows {
					if len(row) != g.NumTopics() {
						t.Fatalf("validated frontier row has %d values for %d topics", len(row), g.NumTopics())
					}
				}
			}
			for _, row := range rows {
				for _, w := range row {
					if math.IsNaN(w) || math.IsInf(w, 0) {
						t.Fatalf("accepted the weight %v", w)
					}
				}
			}
			again, err := EncodeFrontierRequest(EstimateRequest{User: req.User, Generation: req.Generation, Frontier: rows})
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted request re-encodes differently (%v):\n%x\n%x", err, data, again)
			}
			rejectsDamage(t, data, func(b []byte) error { _, err := DecodeFrontierRequest(b); return err })
		}

		// What the client does with a frontier response from the network,
		// for a two-shard group and the response's own width: an accepted
		// response folds without panicking, one estimate per sibling, every
		// row whole.
		if resp, err := DecodeFrontierResponse(data); err == nil {
			width := len(resp.Frontier[0])
			built := 24 * cap(resp.Frontier)
			for _, row := range resp.Frontier {
				built += int(reflect.TypeOf(rrindex.Partial{}).Size()) * cap(row)
			}
			if built > 2*len(data) {
				t.Fatalf("a %d-byte response frame decoded into %d bytes", len(data), built)
			}
			if err := resp.check([]int{0, 1}, width); err == nil {
				if len(resp.Frontier) != 2 || resp.Frontier[0][0].Shard == resp.Frontier[1][0].Shard {
					t.Fatalf("accepted frontier does not cover shards {0,1} once each: %+v", resp.Frontier)
				}
				for _, row := range resp.Frontier {
					if len(row) != width {
						t.Fatalf("accepted a ragged frontier: %+v", resp.Frontier)
					}
				}
				if got := rrindex.GatherFrontierPartials(resp.Frontier); len(got) != width {
					t.Fatalf("gathered %d estimates for %d siblings", len(got), width)
				}
			}
			again, err := EncodeFrontierResponse(resp)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted response re-encodes differently (%v):\n%x\n%x", err, data, again)
			}
			rejectsDamage(t, data, func(b []byte) error { _, err := DecodeFrontierResponse(b); return err })
		}
	})
}

// TestFrameCarriesEveryFieldLosslessly: a frame round trip is the
// identity on every field of both messages, extremes included — the
// sign of a zero weight, the smallest subnormal, the full integer range,
// the stop outcome no shard produces today.
func TestFrameCarriesEveryFieldLosslessly(t *testing.T) {
	req := EstimateRequest{User: 1<<40 + 7, Generation: math.MaxUint64 - 1, Frontier: [][]float64{
		{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64}, {math.MaxFloat64, -0.1, 1.0 / 3},
	}}
	got, err := DecodeFrontierRequest(mustRequestFrame(t, req))
	if err != nil {
		t.Fatalf("DecodeFrontierRequest: %v", err)
	}
	var s FrontierScratch
	rows := got.FrontierRows(&s)
	if got.User != req.User || got.Generation != req.Generation || got.Width() != 2 || got.Frontier != nil {
		t.Fatalf("request header = %+v, want %+v", got, req)
	}
	for i, row := range req.Frontier {
		for z, w := range row {
			if math.Float64bits(rows[i][z]) != math.Float64bits(w) {
				t.Fatalf("weight [%d][%d] = %v, want %v bit for bit", i, z, rows[i][z], w)
			}
		}
	}
	// A second decode into the same scratch reuses it.
	flat := &s.flat[0]
	if again := got.FrontierRows(&s); &again[0][0] != flat {
		t.Fatal("FrontierRows reallocated a scratch that was large enough")
	}

	resp := EstimateResponse{Generation: 1 << 63, Frontier: [][]rrindex.Partial{
		{{Shard: math.MaxInt32, Hits: math.MaxInt64, Samples: math.MinInt64, Contained: -1, Theta: 1, Users: math.MaxInt64, EstHits: 2.5, Stopped: true}},
		{{Shard: -3, EstHits: math.Copysign(0, -1)}},
	}}
	back, err := DecodeFrontierResponse(mustResponseFrame(t, resp))
	if err != nil {
		t.Fatalf("DecodeFrontierResponse: %v", err)
	}
	if !reflect.DeepEqual(back, resp) || !math.Signbit(back.Frontier[1][0].EstHits) {
		t.Fatalf("response round trip:\n got  %+v\n want %+v", back, resp)
	}
}

// TestFrameEncodersRefuseWhatDecodersWould: nothing the decoders reject
// can be produced by the encoders, so a caller's bug surfaces where it is
// rather than as a 400 from a shard.
func TestFrameEncodersRefuseWhatDecodersWould(t *testing.T) {
	for name, rows := range map[string][][]float64{
		"no rows": nil, "empty rows": {{}, {}}, "ragged": {{0.5, 0.5}, {1}},
		"NaN": {{0.5, math.NaN()}}, "+Inf": {{math.Inf(1), 0}}, "-Inf": {{0, math.Inf(-1)}},
	} {
		if b, err := EncodeFrontierRequest(EstimateRequest{Frontier: rows}); err == nil {
			t.Errorf("request with %s encoded to %d bytes", name, len(b))
		}
	}
	for name, rows := range map[string][][]rrindex.Partial{
		"no rows": nil, "empty rows": {{}}, "ragged": {{{Shard: 0}, {Shard: 0}}, {{Shard: 1}}},
	} {
		if b, err := EncodeFrontierResponse(EstimateResponse{Frontier: rows}); err == nil {
			t.Errorf("response with %s encoded to %d bytes", name, len(b))
		}
	}
}

// TestFrameDecodersSizeNothingFromDeclaredCounts: a header may declare
// 2^32−1 by 2^32−1 cells over a valid checksum; both decoders refuse it
// on the byte length alone, having allocated no more than an error.
func TestFrameDecodersSizeNothingFromDeclaredCounts(t *testing.T) {
	request := mustRequestFrame(t, EstimateRequest{Frontier: [][]float64{{0.5, 0.5}}})
	response := mustResponseFrame(t, EstimateResponse{Frontier: [][]rrindex.Partial{{{Shard: 0}}}})
	huge := func(frame []byte, header int) []byte {
		return patched(frame, func(b []byte) { le.PutUint64(b[header-8:], math.MaxUint64) })
	}
	for name, decode := range map[string]func() error{
		"request":  func() error { _, err := DecodeFrontierRequest(huge(request, requestHeader)); return err },
		"response": func() error { _, err := DecodeFrontierResponse(huge(response, responseHeader)); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s frame declaring 2^64 cells was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
			t.Errorf("%s decoder allocated %d bytes rejecting it", name, grew)
		}
	}
}
