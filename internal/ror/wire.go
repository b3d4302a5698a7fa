package ror

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hcl/internal/trace"
)

// Wire format. Requests:
//
//	call:  [kind=0][nchain u8]([id u64])...[arg]
//	batch: [kind=1][count u32]([id u64][arglen u32][arg])...
//
// A function travels as its 64-bit id, the FNV-1a hash of its bound name
// (FnID), never as the name itself: every process derives the same id
// from the same name, so no bind-order agreement is needed. The client
// hashes the name on each call; the server resolves the id with one
// atomic load of the registry snapshot and a binary search of its
// id-sorted bindings, without allocating. Bind panics when two
// different names hash to one id.
//
// A traced request sets kindTraceFlag on the kind byte and inserts a
// trace.CtxWireLen-byte trace context between the kind byte and the
// body. Untraced requests carry no context bytes.
//
// Responses:
//
//	[status u8][payload]            status 0 = ok, 1 = error string
//
// Batch payloads: [count u32]([len u32][resp])...
const (
	kindCall  = 0
	kindBatch = 1

	// kindTraceFlag marks a request carrying a trace context. Flagged on
	// the kind byte so old decoders reject rather than misparse.
	kindTraceFlag = 0x80

	statusOK  = 0
	statusErr = 1

	idLen = 8
)

// FnID is the wire id of the function bound under name: the 64-bit
// FNV-1a hash of its bytes.
func FnID(name string) uint64 { return FNV1a(name) }

// FNV1a is the 64-bit FNV-1a hash of b, computed inline so that hashing
// a key or a name never allocates.
func FNV1a[T ~string | ~[]byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

type subCall struct {
	fn  string
	arg []byte
}

// request is a decoded, fully validated request frame. Its slices alias
// the frame; walking them again cannot fail.
type request struct {
	kind  byte
	chain []byte // call: nchain ids, idLen bytes each
	arg   []byte // call: the argument; batch: the sub-call records
	count int    // batch: number of sub-call records
	tc    trace.Ctx
}

// errTruncated is the error every malformed request frame decodes to.
var errTruncated = errors.New("ror: truncated request")

func errBatchFanout(got, want int) error {
	return fmt.Errorf("ror: batch returned %d responses for %d calls", got, want)
}

// encBuf is a pooled request-encode buffer. Requests travel down through
// the provider and, on pipelined transports, may sit in a send queue after
// a timeout — so callers release only once the round trip succeeded (a
// failed exchange leaks the buffer to the GC, which is always safe).
type encBuf struct{ b []byte }

// maxPooledEnc keeps one-off giant requests from pinning pool memory.
const maxPooledEnc = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

// grabEnc returns a pooled buffer of exactly n bytes.
func grabEnc(n int) *encBuf {
	eb := encPool.Get().(*encBuf)
	if cap(eb.b) < n {
		eb.b = make([]byte, n)
	}
	eb.b = eb.b[:n]
	return eb
}

func (eb *encBuf) release() {
	if eb == nil {
		return
	}
	if cap(eb.b) > maxPooledEnc {
		eb.b = nil
	}
	encPool.Put(eb)
}

// putHeader writes the kind byte and, for a valid trace context, the flag
// and the context, returning the body offset.
func putHeader(b []byte, kind byte, tc trace.Ctx) int {
	b[0] = kind
	if !tc.Valid() {
		return 1
	}
	b[0] |= kindTraceFlag
	trace.PutCtx(b[1:], tc)
	return 1 + trace.CtxWireLen
}

func headerLen(tc trace.Ctx) int {
	if tc.Valid() {
		return 1 + trace.CtxWireLen
	}
	return 1
}

// encodeCallBuf marshals a call request into an exactly-sized pooled
// buffer.
func encodeCallBuf(chain []string, arg []byte, tc trace.Ctx) *encBuf {
	eb := grabEnc(headerLen(tc) + 1 + idLen*len(chain) + len(arg))
	b := eb.b
	p := putHeader(b, kindCall, tc)
	b[p] = byte(len(chain))
	p++
	for _, s := range chain {
		binary.LittleEndian.PutUint64(b[p:], FnID(s))
		p += idLen
	}
	copy(b[p:], arg)
	return eb
}

// ArgHeadroom is the room an InvokeInPlace argument buffer reserves in
// front of the argument: the largest single-call header (kind byte,
// trace context, chain length, one id).
const ArgHeadroom = 1 + trace.CtxWireLen + 1 + idLen

// ArgBuf returns an empty InvokeInPlace argument buffer: ArgHeadroom
// reserved bytes, with capacity for an n-byte argument appended behind
// them.
func ArgBuf(n int) []byte { return make([]byte, ArgHeadroom, ArgHeadroom+n) }

// encodeCallInPlace writes fn's call header into buf's headroom, right
// against the argument, and returns the frame: the argument is not
// copied, and the frame is the caller's buffer, never a pooled one.
func encodeCallInPlace(fn string, buf []byte, tc trace.Ctx) []byte {
	b := buf[ArgHeadroom-headerLen(tc)-1-idLen:]
	p := putHeader(b, kindCall, tc)
	b[p] = 1
	binary.LittleEndian.PutUint64(b[p+1:], FnID(fn))
	return b
}

// encodeBatchBuf marshals a batch request into an exactly-sized pooled
// buffer.
func encodeBatchBuf(calls []subCall, tc trace.Ctx) *encBuf {
	n := headerLen(tc) + 4
	for _, c := range calls {
		n += idLen + 4 + len(c.arg)
	}
	eb := grabEnc(n)
	b := eb.b
	p := putHeader(b, kindBatch, tc)
	binary.LittleEndian.PutUint32(b[p:], uint32(len(calls)))
	p += 4
	for _, c := range calls {
		binary.LittleEndian.PutUint64(b[p:], FnID(c.fn))
		binary.LittleEndian.PutUint32(b[p+idLen:], uint32(len(c.arg)))
		p += idLen + 4
		p += copy(b[p:], c.arg)
	}
	return eb
}

func encodeCall(chain []string, arg []byte) []byte {
	eb := encodeCallBuf(chain, arg, trace.Ctx{})
	out := append([]byte(nil), eb.b...)
	eb.release()
	return out
}

func encodeBatch(calls []subCall) []byte {
	eb := encodeBatchBuf(calls, trace.Ctx{})
	out := append([]byte(nil), eb.b...)
	eb.release()
	return out
}

// decodeRequest validates a request frame without allocating. Any
// malformed frame yields errTruncated; an unknown kind decodes and is
// rejected by dispatch.
func decodeRequest(b []byte) (request, error) {
	if len(b) < 1 {
		return request{}, errTruncated
	}
	kind := b[0]
	body := b[1:]
	var tc trace.Ctx
	if kind&kindTraceFlag != 0 {
		kind &^= kindTraceFlag
		var err error
		if tc, err = trace.ReadCtx(body); err != nil {
			return request{}, errTruncated
		}
		body = body[trace.CtxWireLen:]
	}
	var r request
	var err error
	switch kind {
	case kindCall:
		r, err = decodeCallRequest(body)
	case kindBatch:
		r, err = decodeBatchRequest(body)
	default:
		r = request{kind: kind}
	}
	if err != nil {
		return request{}, err
	}
	r.tc = tc
	return r, nil
}

// decodeCallRequest parses a call body (everything after the kind byte
// and optional trace context).
func decodeCallRequest(b []byte) (request, error) {
	if len(b) < 1 {
		return request{}, errTruncated
	}
	end := 1 + idLen*int(b[0])
	if end > len(b) {
		return request{}, errTruncated
	}
	return request{kind: kindCall, chain: b[1:end], arg: b[end:]}, nil
}

// decodeBatchRequest parses a batch body (everything after the kind byte
// and optional trace context), checking every sub-call record's bounds.
func decodeBatchRequest(b []byte) (request, error) {
	if len(b) < 4 {
		return request{}, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(b))
	recs := b[4:]
	rest := recs
	for i := 0; i < count; i++ {
		var ok bool
		if _, _, rest, ok = nextSub(rest); !ok {
			return request{}, errTruncated
		}
	}
	return request{kind: kindBatch, arg: recs, count: count}, nil
}

// nextSub splits the first [id][arglen][arg] record off b.
func nextSub(b []byte) (id uint64, arg, rest []byte, ok bool) {
	if len(b) < idLen+4 {
		return 0, nil, nil, false
	}
	id = binary.LittleEndian.Uint64(b)
	al := uint64(binary.LittleEndian.Uint32(b[idLen:]))
	b = b[idLen+4:]
	if al > uint64(len(b)) {
		return 0, nil, nil, false
	}
	return id, b[:al], b[al:], true
}

func encodeResponse(payload []byte, err error) []byte {
	if err != nil {
		msg := err.Error()
		out := make([]byte, 0, 1+len(msg))
		out = append(out, statusErr)
		return append(out, msg...)
	}
	out := make([]byte, 0, 1+len(payload))
	out = append(out, statusOK)
	return append(out, payload...)
}

func decodeResponse(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, errors.New("ror: empty response")
	}
	switch b[0] {
	case statusOK:
		return b[1:], nil
	case statusErr:
		return nil, fmt.Errorf("ror: remote: %s", string(b[1:]))
	default:
		return nil, fmt.Errorf("ror: bad response status %d", b[0])
	}
}

func encodeBatchResponses(resps [][]byte) []byte {
	n := 4
	for _, r := range resps {
		n += 4 + len(r)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(resps)))
	for _, r := range resps {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

func decodeBatchResponses(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, errors.New("ror: truncated batch response")
	}
	count := int(binary.LittleEndian.Uint32(b))
	p := 4
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if p+4 > len(b) {
			return nil, errors.New("ror: truncated batch response")
		}
		l := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if p+l > len(b) {
			return nil, errors.New("ror: truncated batch response")
		}
		out = append(out, b[p:p+l])
		p += l
	}
	return out, nil
}
