package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"pitex/internal/rrindex"
)

// The binary frame of POST /shard/estimate's frontier form. This file is
// the only place that knows the layout (tabulated in the package
// documentation). Every integer and float is little-endian; a frame is a
// fixed header declaring an n × m payload, the payload, and the CRC-32C
// (Castagnoli) of every byte before it:
//
//	request   "PFQ\x01" user:i64 generation:u64 rows:u32 topics:u32 | rows×topics weight:f64   | crc:u32
//	response  "PFR\x01" generation:u64 rows:u32 width:u32           | rows×width partial record | crc:u32
//	record    shard hits samples contained theta users: i64 each, est_hits:f64, stopped:u8 (57 bytes)
//
// The decoders are the trust boundary for bytes off the network: they
// reject whatever JSON could not express (NaN, ±Inf, a ragged matrix)
// and whatever it had no notion of (a foreign magic or version, declared
// dimensions that disagree with the byte length, a failed checksum), and
// never allocate from a declared dimension before it has been checked
// against the bytes actually present.

// FrontierContentType selects the frame on both legs of an estimate
// exchange; any other Content-Type is the JSON per-candidate form.
const FrontierContentType = "application/x-pitex-frontier"

const (
	requestMagic   = "PFQ\x01"
	responseMagic  = "PFR\x01"
	requestHeader  = 4 + 8 + 8 + 4 + 4
	responseHeader = 4 + 8 + 4 + 4
	weightSize     = 8
	partialSize    = 6*8 + 8 + 1
	crcSize        = 4

	// expMask covers a float64's exponent bits: all set means NaN or ±Inf.
	expMask = 0x7ff << 52
)

var (
	le       = binary.LittleEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// newFrame starts a frame of exactly the size its n × m payload of
// unit-byte cells seals to, so encoding never grows the buffer.
func newFrame(magic string, header, n, m, unit int) []byte {
	return append(make([]byte, 0, header+n*m*unit+crcSize), magic...)
}

// seal closes a frame with the checksum of everything before it.
func seal(b []byte) []byte {
	return le.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// open checks the envelope both frames share — magic and version, the
// n × m dimensions in the header's last two words against the payload's
// exact length in unit-byte cells, the checksum — and returns the
// dimensions and the payload. Two u32 cannot overflow a u64 product, and
// the product is compared with a cell count, never scaled to bytes.
func open(frame []byte, magic string, header, unit int) (n, m int, payload []byte, err error) {
	if len(frame) < header+crcSize || string(frame[:len(magic)]) != magic {
		return 0, 0, nil, fmt.Errorf("distrib: not a %s frame", magic[:3])
	}
	body := frame[:len(frame)-crcSize]
	payload = body[header:]
	n64, m64 := uint64(le.Uint32(body[header-8:])), uint64(le.Uint32(body[header-4:]))
	if n64 == 0 || m64 == 0 || len(payload)%unit != 0 || n64*m64 != uint64(len(payload)/unit) {
		return 0, 0, nil, fmt.Errorf("distrib: %s frame declares %d x %d cells of %d bytes, carries %d bytes",
			magic[:3], n64, m64, unit, len(payload))
	}
	if crc32.Checksum(body, crcTable) != le.Uint32(frame[len(body):]) {
		return 0, 0, nil, fmt.Errorf("distrib: %s frame fails its checksum", magic[:3])
	}
	return int(n64), int(m64), payload, nil
}

// EncodeFrontierRequest frames a frontier request. It refuses what the
// decoder would: no rows, rows of unequal width, a weight that is not
// finite.
func EncodeFrontierRequest(req EstimateRequest) ([]byte, error) {
	rows := req.Frontier
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("distrib: frontier request carries no weights")
	}
	topics := len(rows[0])
	b := newFrame(requestMagic, requestHeader, len(rows), topics, weightSize)
	b = le.AppendUint64(b, uint64(int64(req.User)))
	b = le.AppendUint64(b, req.Generation)
	b = le.AppendUint32(b, uint32(len(rows)))
	b = le.AppendUint32(b, uint32(topics))
	for i, row := range rows {
		if len(row) != topics {
			return nil, fmt.Errorf("distrib: frontier row %d has %d values, row 0 has %d", i, len(row), topics)
		}
		for _, w := range row {
			bits := math.Float64bits(w)
			if bits&expMask == expMask {
				return nil, fmt.Errorf("distrib: frontier row %d carries the weight %v", i, w)
			}
			b = le.AppendUint64(b, bits)
		}
	}
	return seal(b), nil
}

// framedRows is the payload of a decoded request frame: checked, but
// still in wire form until FrontierRows gives it somewhere to decode to.
type framedRows struct {
	rows, topics int
	weights      []byte
}

// DecodeFrontierRequest checks a request frame and returns the request it
// carries. Its weights stay in frame (which the request keeps referring
// to) until FrontierRows decodes them; Width and Validate see them
// already.
func DecodeFrontierRequest(frame []byte) (EstimateRequest, error) {
	rows, topics, weights, err := open(frame, requestMagic, requestHeader, weightSize)
	if err != nil {
		return EstimateRequest{}, err
	}
	for off := 0; off < len(weights); off += weightSize {
		if le.Uint64(weights[off:])&expMask == expMask {
			return EstimateRequest{}, fmt.Errorf("distrib: frontier weight %d is NaN or infinite", off/weightSize)
		}
	}
	return EstimateRequest{
		User:       int(int64(le.Uint64(frame[4:]))),
		Generation: le.Uint64(frame[12:]),
		framed:     framedRows{rows, topics, weights},
	}, nil
}

// FrontierScratch is a reusable decode target for FrontierRows: one flat
// weight array and the row views into it.
type FrontierScratch struct {
	flat []float64
	rows [][]float64
}

// Width is the number of siblings a frontier request carries, 0 for the
// per-candidate form.
func (r EstimateRequest) Width() int {
	return max(len(r.Frontier), r.framed.rows)
}

// FrontierRows returns the request's weight rows: Frontier itself, or a
// framed request's weights decoded into s, valid until s is used again.
func (r EstimateRequest) FrontierRows(s *FrontierScratch) [][]float64 {
	f := r.framed
	if f.rows == 0 {
		return r.Frontier
	}
	if cap(s.flat) < f.rows*f.topics {
		s.flat = make([]float64, f.rows*f.topics)
	}
	if cap(s.rows) < f.rows {
		s.rows = make([][]float64, f.rows)
	}
	s.flat, s.rows = s.flat[:f.rows*f.topics], s.rows[:f.rows]
	for i := range s.flat {
		s.flat[i] = math.Float64frombits(le.Uint64(f.weights[i*weightSize:]))
	}
	for i := range s.rows {
		s.rows[i] = s.flat[i*f.topics : (i+1)*f.topics : (i+1)*f.topics]
	}
	return s.rows
}

// EncodeFrontierResponse frames a frontier answer: one row of partials
// per owned shard, all of one width.
func EncodeFrontierResponse(resp EstimateResponse) ([]byte, error) {
	rows := resp.Frontier
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("distrib: frontier response carries no partials")
	}
	width := len(rows[0])
	b := newFrame(responseMagic, responseHeader, len(rows), width, partialSize)
	b = le.AppendUint64(b, resp.Generation)
	b = le.AppendUint32(b, uint32(len(rows)))
	b = le.AppendUint32(b, uint32(width))
	for i, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("distrib: frontier response row %d has %d partials, row 0 has %d", i, len(row), width)
		}
		for _, p := range row {
			for _, v := range [...]int64{int64(p.Shard), p.Hits, p.Samples, int64(p.Contained), p.Theta, int64(p.Users)} {
				b = le.AppendUint64(b, uint64(v))
			}
			b = le.AppendUint64(b, math.Float64bits(p.EstHits))
			var stopped byte
			if p.Stopped {
				stopped = 1
			}
			b = append(b, stopped)
		}
	}
	return seal(b), nil
}

// DecodeFrontierResponse checks a response frame and returns the answer
// it carries, its rows views into one exactly-sized array. What the rows
// say — which shards, how many siblings — is for EstimateResponse.check.
func DecodeFrontierResponse(frame []byte) (EstimateResponse, error) {
	rows, width, records, err := open(frame, responseMagic, responseHeader, partialSize)
	if err != nil {
		return EstimateResponse{}, err
	}
	flat := make([]rrindex.Partial, rows*width)
	for i := range flat {
		rec := records[i*partialSize : (i+1)*partialSize]
		i64 := func(field int) int64 { return int64(le.Uint64(rec[8*field:])) }
		est := le.Uint64(rec[48:])
		if est&expMask == expMask || rec[56] > 1 {
			return EstimateResponse{}, fmt.Errorf("distrib: frontier partial %d carries a non-finite estimate or a non-boolean flag", i)
		}
		flat[i] = rrindex.Partial{
			Shard: int(i64(0)), Hits: i64(1), Samples: i64(2), Contained: int(i64(3)), Theta: i64(4), Users: int(i64(5)),
			EstHits: math.Float64frombits(est), Stopped: rec[56] == 1,
		}
	}
	out := make([][]rrindex.Partial, rows)
	for i := range out {
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return EstimateResponse{Generation: le.Uint64(frame[4:]), Frontier: out}, nil
}
