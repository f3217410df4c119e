package distrib

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
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

// responseV1 hand-builds a one-record response frame of version 0x01,
// whose 57-byte record ended in est_hits:f64 and stopped:u8 — what a
// shard server of the previous response version sends.
func responseV1() []byte {
	b := append([]byte("PFR\x01"), make([]byte, responseHeader-4)...)
	le.PutUint64(b[4:], 1)
	le.PutUint32(b[12:], 1)
	le.PutUint32(b[16:], 1)
	for _, v := range [...]int64{0, 3, 4, 5, 100, 10} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint64(b, math.Float64bits(0))
	return seal(append(b, 0))
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
// image of it are rejected. A request that validates carries finite,
// topic-wide rows; every record of an accepted response is a scan's
// counts, and a response that passes the client's check can be gathered
// positionally — ragged rows, foreign or mixed shard ids never get that
// far.
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
	// Malformed shapes: a ragged matrix (2x2 declared over three weights),
	// a row mixing shard ids, a foreign shard, no rows.
	f.Add(patched(request[:len(request)-weightSize], func(b []byte) {}))
	f.Add(mustResponseFrame(f, EstimateResponse{Frontier: [][]rrindex.Partial{
		{part(0, 0, 100, 10), part(0, 0, 100, 10)}, {part(1, 0, 50, 5), part(0, 0, 100, 10)}}}))
	f.Add(mustResponseFrame(f, EstimateResponse{Frontier: [][]rrindex.Partial{{part(0, 0, 100, 10)}, {part(7, 0, 50, 5)}}}))
	f.Add(patched(request[:requestHeader+crcSize], func(b []byte) { le.PutUint32(b[20:], 0) }))
	// A non-finite weight, more hits than samples, the previous response
	// version, counts far past the bytes.
	f.Add(patched(request, func(b []byte) { le.PutUint64(b[requestHeader:], math.Float64bits(math.NaN())) }))
	f.Add(patched(response, func(b []byte) { le.PutUint64(b[responseHeader+8:], 1<<40) }))
	f.Add(responseV1())
	f.Add(patched(request, func(b []byte) { le.PutUint64(b[20:], math.MaxUint64) }))
	f.Add(patched(response, func(b []byte) { le.PutUint32(b[12:], 1<<31); le.PutUint32(b[16:], 1<<31) }))
	f.Add(faultinject.CorruptBytes(request))
	f.Add([]byte(`{"user":3,"generation":1,"frontier":[[0.5,0.5],[0.25,0.75]]}`))
	f.Add([]byte{})
	// A single estimate: EstimateRemote's width-1 frontier.
	f.Add(mustRequestFrame(f, EstimateRequest{User: 3, Generation: 1, Frontier: [][]float64{{0.5, 0.5}}}))
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
			for _, row := range resp.Frontier {
				for _, p := range row {
					if err := checkPartial(p); err != nil {
						t.Fatalf("accepted the record %+v: %v", p, err)
					}
				}
			}
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
// sign of a zero weight, the smallest subnormal, every record field at
// the top of its valid range and at zero.
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
		{{Shard: math.MaxInt, Hits: math.MaxInt64, Samples: math.MaxInt64, Contained: math.MaxInt, Theta: math.MaxInt64, Users: math.MaxInt}},
		{{Shard: 0}},
	}}
	frame := mustResponseFrame(t, resp)
	if want := responseHeader + 2*48 + crcSize; len(frame) != want || string(frame[:4]) != "PFR\x02" {
		t.Fatalf("response frame is %d bytes starting %q, want %d starting PFR 0x02", len(frame), frame[:4], want)
	}
	back, err := DecodeFrontierResponse(frame)
	if err != nil {
		t.Fatalf("DecodeFrontierResponse: %v", err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("response round trip:\n got  %+v\n want %+v", back, resp)
	}
}

// TestFrameNamesAVersionMismatch: a response of the previous version —
// the 57-byte record that carried est_hits and a stop flag — is refused
// with both versions named, so a half-upgraded fleet says what is wrong;
// a foreign magic still reads as no frame at all.
func TestFrameNamesAVersionMismatch(t *testing.T) {
	_, err := DecodeFrontierResponse(responseV1())
	if err == nil || !strings.Contains(err.Error(), "PFR frame version 1, this build reads 2") {
		t.Fatalf("version-1 response: err = %v, want both versions named", err)
	}
	request := mustRequestFrame(t, EstimateRequest{Frontier: [][]float64{{1}}})
	_, err = DecodeFrontierRequest(patched(request, func(b []byte) { b[3] = 9 }))
	if err == nil || !strings.Contains(err.Error(), "PFQ frame version 9, this build reads 1") {
		t.Fatalf("version-9 request: err = %v, want both versions named", err)
	}
	if _, err := DecodeFrontierResponse(request); err == nil || !strings.Contains(err.Error(), "not a PFR frame") {
		t.Fatalf("request read as a response: err = %v", err)
	}
}

// TestFrameRefusesImpossibleRecords: a response record is integers only,
// so the decoder holds it to what a scan can produce — 0 ≤ Hits ≤
// Samples ≤ Contained ≤ Theta, Users ≥ 0, Shard ≥ 0. One case per
// violation, each over a valid checksum (the encoder's refusals are in
// TestFrameEncodersRefuseWhatDecodersWould).
func TestFrameRefusesImpossibleRecords(t *testing.T) {
	valid := rrindex.Partial{Shard: 1, Hits: 2, Samples: 3, Contained: 4, Theta: 5, Users: 6}
	response := mustResponseFrame(t, EstimateResponse{Frontier: [][]rrindex.Partial{{valid}}})
	if _, err := DecodeFrontierResponse(response); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	for _, tc := range []struct {
		name  string
		field int // the record word to overwrite
		value int64
	}{
		{"negative shard", 0, -1},
		{"negative hits", 1, -1},
		{"hits above samples", 1, 4},
		{"samples above contained", 2, 5},
		{"contained above theta", 3, 6},
		{"negative users", 5, -1},
	} {
		frame := patched(response, func(b []byte) { le.PutUint64(b[responseHeader+8*tc.field:], uint64(tc.value)) })
		if resp, err := DecodeFrontierResponse(frame); err == nil {
			t.Errorf("%s: decoded %+v", tc.name, resp.Frontier)
		}
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
		"negative shard": {{{Shard: -1}}}, "negative users": {{{Users: -1}}}, "negative hits": {{{Hits: -1}}},
		"hits above samples":      {{{Hits: 2, Samples: 1, Contained: 2, Theta: 2}}},
		"samples above contained": {{{Samples: 2, Contained: 1, Theta: 2}}},
		"contained above theta":   {{{Contained: 2, Theta: 1}}},
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
