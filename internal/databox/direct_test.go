package databox

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// reflectEncode and reflectDecode are the reference the direct path must
// match byte for byte and error for error: binc's reflective codec for
// strings and byte slices, the reflective byte copy for fixed sizes.
func reflectEncode[T any](v T) ([]byte, error) {
	if n := fixedSizeOf(reflect.TypeOf(v)); n > 0 {
		return appendFixed(nil, reflect.ValueOf(v)), nil
	}
	return Binc().Marshal(v)
}

func reflectDecode[T any](data []byte) (T, error) {
	var v T
	t := reflect.TypeOf(v)
	if n := fixedSizeOf(t); n > 0 {
		if len(data) != n {
			return v, fmt.Errorf("databox: fixed-size %v needs %d bytes, got %d", t, n, len(data))
		}
		_, err := readFixed(data, reflect.ValueOf(&v).Elem())
		return v, err
	}
	err := Binc().Unmarshal(data, &v)
	return v, err
}

// checkDirect compares the direct path against the reference for v, for
// every prefix of its encoding and for the encoding with a trailing byte.
func checkDirect[T any](t *testing.T, b *Box[T], v T) {
	t.Helper()
	if b.direct == directNone {
		t.Fatalf("%T: direct path not selected", v)
	}
	want, werr := reflectEncode(v)
	got, gerr := b.Encode(v)
	if !bytes.Equal(got, want) || (werr == nil) != (gerr == nil) {
		t.Fatalf("Encode(%#v) = %x,%v; reflective %x,%v", v, got, gerr, want, werr)
	}
	if n, ok := b.EncodedLen(v); !ok || n != len(want) {
		t.Fatalf("EncodedLen(%#v) = %d,%v, want %d", v, n, ok, len(want))
	}
	pre := []byte("prefix")
	app, err := b.AppendEncode(pre[:len(pre):len(pre)], v)
	if err != nil || !bytes.Equal(app, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendEncode(%#v) = %x,%v", v, app, err)
	}
	inputs := [][]byte{append(append([]byte(nil), want...), 0x7f)}
	for i := 0; i <= len(want); i++ {
		inputs = append(inputs, want[:i])
	}
	for _, in := range inputs {
		compareDecode(t, b, in)
	}
}

// compareDecode checks that the direct and reflective decoders agree on
// in: the same value, or the same error text.
func compareDecode[T any](t *testing.T, b *Box[T], in []byte) {
	t.Helper()
	dv, derr := b.Decode(in)
	rv, rerr := reflectDecode[T](in)
	if fmt.Sprint(derr) != fmt.Sprint(rerr) {
		t.Fatalf("Decode(%x) error %v, reflective %v", in, derr, rerr)
	}
	if derr == nil && !reflect.DeepEqual(dv, rv) {
		t.Fatalf("Decode(%x) = %#v, reflective %#v", in, dv, rv)
	}
}

func TestDirectPathMatchesReflective(t *testing.T) {
	for _, s := range []string{"", "a", "hello, world", strings.Repeat("x", 127), strings.Repeat("y", 128), strings.Repeat("z", 70000)} {
		checkDirect(t, New[string](), s)
	}
	for _, b := range [][]byte{nil, {}, {0}, []byte("bytes"), bytes.Repeat([]byte{0xff}, 300)} {
		checkDirect(t, New[[]byte](), b)
	}
	checkDirect(t, New[int](), -1234567)
	checkDirect(t, New[uint64](), 1<<63+5)
	checkDirect(t, New[int8](), -3)
	checkDirect(t, New[uint32](), 0xdeadbeef)
	checkDirect(t, New[float64](), -2.5)
	checkDirect(t, New[complex64](), complex(1, -2))
	checkDirect(t, New[[4]int16](), [4]int16{1, -2, 3, -4})
	checkDirect(t, New[[2][3]uint8](), [2][3]uint8{{1, 2, 3}, {4, 5, 6}})
}

func TestDirectPathSelection(t *testing.T) {
	type named string
	type pair struct{ A, B int32 }
	cases := []struct {
		name string
		got  directKind
		want directKind
	}{
		{"string", New[string]().direct, directString},
		{"[]byte", New[[]byte]().direct, directBytes},
		{"int64", New[int64]().direct, directFixed},
		{"named string", New[named]().direct, directNone},
		{"bool", New[bool]().direct, directNone},   // decode normalizes nonzero bytes
		{"struct", New[pair]().direct, directNone}, // fields are not one number
		{"string via gob", New[string](WithCodec(Gob())).direct, directNone},
		{"string via wrapped binc", New[string](WithCodec(countingCodec{Codec: Binc(), n: new(int)})).direct, directNone},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: direct = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// countingCodec wraps a codec and counts Marshal calls.
type countingCodec struct {
	Codec
	n *int
}

func (c countingCodec) Marshal(v any) ([]byte, error) {
	*c.n++
	return c.Codec.Marshal(v)
}

// A user codec, even one wrapping binc, is called for every encode: the
// direct path belongs to the built-in binc alone.
func TestWrappedCodecKeepsCodecPath(t *testing.T) {
	cc := countingCodec{Codec: Binc(), n: new(int)}
	b := New[string](WithCodec(cc))
	got, err := b.Encode("abc")
	if err != nil || *cc.n != 1 {
		t.Fatalf("Encode via wrapped codec: %x,%v, %d codec calls", got, err, *cc.n)
	}
	if want, _ := New[string]().Encode("abc"); !bytes.Equal(got, want) {
		t.Fatalf("wrapped binc %x, direct %x", got, want)
	}
}

func TestDirectPathAllocs(t *testing.T) {
	sb, bb, ib := New[string](), New[[]byte](), New[uint64]()
	s, raw := "a sixteen-byte k", []byte("some value bytes")
	es, _ := sb.Encode(s)
	eb, _ := bb.Encode(raw)
	ei, _ := ib.Encode(42)
	var buf [64]byte
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"string encode", 1, func() { sb.Encode(s) }},
		{"string decode", 1, func() { sb.Decode(es) }},
		{"string append into room", 0, func() { sb.AppendEncode(buf[:0], s) }},
		{"bytes encode", 1, func() { bb.Encode(raw) }},
		{"bytes decode", 1, func() { bb.Decode(eb) }},
		{"uint64 encode", 1, func() { ib.Encode(42) }},
		{"uint64 decode", 0, func() { ib.Decode(ei) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}

// FuzzDirectPath: for arbitrary strings, byte slices and raw inputs, the
// direct path encodes exactly as reflective binc and decodes arbitrary
// bytes to the same value or the same error.
func FuzzDirectPath(f *testing.F) {
	f.Add("key", []byte("value"), []byte{0x03, 'a', 'b', 'c'})
	f.Add("", []byte(nil), []byte{})
	f.Add(strings.Repeat("q", 200), []byte{0}, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	sb, bb, ib := New[string](), New[[]byte](), New[int32]()
	f.Fuzz(func(t *testing.T, s string, b, raw []byte) {
		want, _ := Binc().Marshal(s)
		if got, _ := sb.Encode(s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: direct %x, reflective %x", s, got, want)
		}
		want, _ = Binc().Marshal(b)
		if got, _ := bb.Encode(b); !bytes.Equal(got, want) {
			t.Fatalf("bytes %x: direct %x, reflective %x", b, got, want)
		}
		compareDecode(t, sb, raw)
		compareDecode(t, bb, raw)
		compareDecode(t, ib, raw)
	})
}

// A length prefix near 2^64 must read as truncated input, not wrap a
// signed bounds check into a slice panic — on every decoder that reads
// one.
func TestHugeLengthPrefixIsTruncation(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'}
	var s string
	if err := Binc().Unmarshal(huge, &s); err == nil {
		t.Fatal("reflective string decode accepted a huge length")
	}
	var b []byte
	if err := Binc().Unmarshal(append([]byte{1}, huge...), &b); err == nil {
		t.Fatal("reflective []byte decode accepted a huge length")
	}
	compareDecode(t, New[string](), huge)
	compareDecode(t, New[[]byte](), append([]byte{1}, huge...))
	if _, _, err := ReadField(huge); err == nil {
		t.Fatal("ReadField accepted a huge length")
	}
}
