// Package databox implements the paper's DataBox abstraction (Section
// III-C): a typed template that defines how complex values are serialized,
// transmitted, and stored. Byte-copyable fixed-size types skip serialization
// entirely; variable-length types go through a pluggable codec backend
// (binc, gob, or json — standing in for the paper's MSGPACK, Cereal, and
// FlatBuffers); and user types can supply their own custom marshaling,
// resolved dynamically at runtime.
package databox

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Marshaler is the custom-serialization hook: a type implementing it is
// encoded by its own method regardless of the configured codec.
type Marshaler interface {
	MarshalBox() ([]byte, error)
}

// Unmarshaler is the decoding counterpart of Marshaler. It must have a
// pointer receiver so the decoded state is visible to the caller.
type Unmarshaler interface {
	UnmarshalBox(data []byte) error
}

// Box is a DataBox for values of type T. The zero Box is not usable; build
// one with New. A Box is immutable and safe for concurrent use.
type Box[T any] struct {
	codec   Codec
	fixed   int  // >0 when T is byte-copyable with this encoded size
	custom  bool // T implements Marshaler/Unmarshaler
	typeOf  reflect.Type
	ptrImpl bool // Unmarshaler implemented on *T
	direct  directKind
}

// directKind selects a path that bypasses reflection and the Codec
// interface while producing the same bytes:
//   - directString/directBytes: T is exactly string or []byte and the
//     codec is binc itself;
//   - directFixed: T is a fixed-size number, or an array of them, whose
//     in-memory bytes on this little-endian host are its encoding.
type directKind uint8

const (
	directNone directKind = iota
	directString
	directBytes
	directFixed
)

// littleEndian reports whether this host stores integers little-endian.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// memIsWire reports whether a value of t is stored in memory exactly as
// appendFixed encodes it: numbers (not bools, whose decode normalizes
// any nonzero byte) and arrays of them, with no padding.
func memIsWire(t reflect.Type, fixed int) bool {
	if !littleEndian || fixed == 0 || int(t.Size()) != fixed {
		return false
	}
	switch t.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return memIsWire(t.Elem(), int(t.Elem().Size()))
	}
	return false
}

// Option configures a Box.
type Option func(*boxConfig)

type boxConfig struct {
	codec Codec
}

// WithCodec selects the serialization backend for variable-length types.
func WithCodec(c Codec) Option {
	return func(cfg *boxConfig) { cfg.codec = c }
}

// New builds a DataBox for T. The fixed-size fast path and custom
// marshaling are detected here, mirroring the paper's compile-time
// fixed/variable distinction.
func New[T any](opts ...Option) *Box[T] {
	cfg := boxConfig{codec: Binc()}
	for _, o := range opts {
		o(&cfg)
	}
	var zero T
	t := reflect.TypeOf(&zero).Elem()
	b := &Box[T]{codec: cfg.codec, typeOf: t}
	if _, ok := any(zero).(Marshaler); ok {
		b.custom = true
		if _, ok := any(&zero).(Unmarshaler); ok {
			b.ptrImpl = true
		}
	} else if _, ok := any(&zero).(Marshaler); ok {
		// Marshaler on pointer receiver.
		b.custom = true
		b.ptrImpl = true
	}
	if !b.custom {
		b.fixed = fixedSizeOf(t)
	}
	if memIsWire(t, b.fixed) {
		b.direct = directFixed
	} else if _, binc := cfg.codec.(bincCodec); binc && !b.custom {
		switch t {
		case reflect.TypeOf(""):
			b.direct = directString
		case reflect.TypeOf([]byte(nil)):
			b.direct = directBytes
		}
	}
	return b
}

// Fixed reports whether T takes the byte-copy fast path, and its size.
func (b *Box[T]) Fixed() (size int, ok bool) { return b.fixed, b.fixed > 0 }

// EncodedLen reports the exact encoded size of v when it is known without
// encoding (fixed-size types, and strings and byte slices under binc).
func (b *Box[T]) EncodedLen(v T) (int, bool) {
	return b.encodedLen(&v)
}

func (b *Box[T]) encodedLen(v *T) (int, bool) {
	switch b.direct {
	case directString:
		n := len(*(*string)(unsafe.Pointer(v)))
		return uvarintLen(uint64(n)) + n, true
	case directBytes:
		bs := *(*[]byte)(unsafe.Pointer(v))
		if bs == nil {
			return 1, true
		}
		return 1 + uvarintLen(uint64(len(bs))) + len(bs), true
	}
	return b.fixed, b.fixed > 0
}

// CodecName reports the backend codec name.
func (b *Box[T]) CodecName() string { return b.codec.Name() }

// Encode serializes v.
func (b *Box[T]) Encode(v T) ([]byte, error) {
	if b.direct != directNone {
		return b.appendDirect(nil, &v), nil
	}
	return b.encode(v)
}

func (b *Box[T]) encode(v T) ([]byte, error) {
	if b.custom {
		m, ok := any(v).(Marshaler)
		if !ok {
			m, ok = any(&v).(Marshaler)
		}
		if !ok {
			return nil, fmt.Errorf("databox: %v does not implement Marshaler", b.typeOf)
		}
		return m.MarshalBox()
	}
	if b.fixed > 0 {
		out := make([]byte, 0, b.fixed)
		return appendFixed(out, reflect.ValueOf(v)), nil
	}
	return b.codec.Marshal(v)
}

// AppendEncode serializes v onto dst and returns the extended slice.
// Fixed-size types, and strings and byte slices under binc, append their
// bytes directly — a caller holding a shared-memory destination (an shm
// ring frame, an arena mirror slot) or a stack array encodes in place
// with no temporary allocation. Custom and codec-backed types marshal as
// usual; the result is copied onto a non-empty dst, and returned as is
// for an empty one.
func (b *Box[T]) AppendEncode(dst []byte, v T) ([]byte, error) {
	if b.direct != directNone {
		return b.appendDirect(dst, &v), nil
	}
	if !b.custom && b.fixed > 0 {
		return appendFixed(dst, reflect.ValueOf(v)), nil
	}
	enc, err := b.encode(v)
	if err != nil || len(dst) == 0 {
		return enc, err
	}
	return append(dst, enc...), nil
}

// Decode deserializes data into a value of T.
func (b *Box[T]) Decode(data []byte) (v T, err error) {
	if b.direct != directNone {
		err = b.decodeDirect(data, &v)
		return v, err
	}
	return b.decode(data)
}

func (b *Box[T]) decode(data []byte) (T, error) {
	var v T
	if b.custom {
		u, ok := any(&v).(Unmarshaler)
		if !ok {
			return v, fmt.Errorf("databox: *%v does not implement Unmarshaler", b.typeOf)
		}
		if err := u.UnmarshalBox(data); err != nil {
			return v, err
		}
		return v, nil
	}
	if b.fixed > 0 {
		if len(data) != b.fixed {
			return v, fmt.Errorf("databox: fixed-size %v needs %d bytes, got %d", b.typeOf, b.fixed, len(data))
		}
		rv := reflect.ValueOf(&v).Elem()
		if _, err := readFixed(data, rv); err != nil {
			return v, err
		}
		return v, nil
	}
	if err := b.codec.Unmarshal(data, &v); err != nil {
		return v, err
	}
	return v, nil
}

// The direct path lives in functions of its own that see v only through
// a pointer they do not retain: inlined into Encode/Decode, the
// conversions would move v to the heap on every path.

// appendDirect appends the encoding of *v to dst, growing dst at most
// once, to exactly the size needed.
func (b *Box[T]) appendDirect(dst []byte, v *T) []byte {
	switch b.direct {
	case directString:
		return appendBincString(dst, *(*string)(unsafe.Pointer(v)))
	case directBytes:
		return appendBincBytes(dst, *(*[]byte)(unsafe.Pointer(v)))
	}
	return append(grow(dst, b.fixed), unsafe.Slice((*byte)(unsafe.Pointer(v)), b.fixed)...)
}

// decodeDirect decodes *v, failing exactly as the reflective decoder
// does.
func (b *Box[T]) decodeDirect(data []byte, v *T) error {
	var n int
	var err error
	switch b.direct {
	case directString:
		n, err = readBincString(data, (*string)(unsafe.Pointer(v)))
	case directBytes:
		n, err = readBincBytes(data, (*[]byte)(unsafe.Pointer(v)))
	default:
		if len(data) != b.fixed {
			return fmt.Errorf("databox: fixed-size %v needs %d bytes, got %d", b.typeOf, b.fixed, len(data))
		}
		n = copy(unsafe.Slice((*byte)(unsafe.Pointer(v)), b.fixed), data)
	}
	if err != nil {
		return err
	}
	return bincTrailing(data, n)
}

// fixedSizeOf reports the byte-copy encoded size of t, or 0 when t is not
// byte-copyable (contains pointers, strings, slices, maps, or interfaces).
func fixedSizeOf(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Float64,
		reflect.Int, reflect.Uint, reflect.Uintptr:
		return 8
	case reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.Array:
		es := fixedSizeOf(t.Elem())
		if es == 0 {
			return 0
		}
		return es * t.Len()
	case reflect.Struct:
		sum := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return 0 // reflect cannot set unexported fields on decode
			}
			fs := fixedSizeOf(f.Type)
			if fs == 0 {
				return 0
			}
			sum += fs
		}
		if sum == 0 {
			sum = 1 // empty struct still needs one byte on the wire
		}
		return sum
	default:
		return 0
	}
}

// appendFixed encodes a byte-copyable value little-endian.
func appendFixed(out []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(out, 1)
		}
		return append(out, 0)
	case reflect.Int8:
		return append(out, byte(v.Int()))
	case reflect.Uint8:
		return append(out, byte(v.Uint()))
	case reflect.Int16:
		return binary.LittleEndian.AppendUint16(out, uint16(v.Int()))
	case reflect.Uint16:
		return binary.LittleEndian.AppendUint16(out, uint16(v.Uint()))
	case reflect.Int32:
		return binary.LittleEndian.AppendUint32(out, uint32(v.Int()))
	case reflect.Uint32:
		return binary.LittleEndian.AppendUint32(out, uint32(v.Uint()))
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v.Float())))
	case reflect.Int, reflect.Int64:
		return binary.LittleEndian.AppendUint64(out, uint64(v.Int()))
	case reflect.Uint, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(out, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Float()))
	case reflect.Complex64:
		c := v.Complex()
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(real(c))))
		return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(imag(c))))
	case reflect.Complex128:
		c := v.Complex()
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(c)))
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(c)))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = appendFixed(out, v.Index(i))
		}
		return out
	case reflect.Struct:
		if v.NumField() == 0 {
			return append(out, 0)
		}
		for i := 0; i < v.NumField(); i++ {
			out = appendFixed(out, v.Field(i))
		}
		return out
	default:
		panic(fmt.Sprintf("databox: appendFixed on non-fixed kind %v", v.Kind()))
	}
}

// readFixed decodes a byte-copyable value and returns bytes consumed.
func readFixed(data []byte, v reflect.Value) (int, error) {
	need := fixedSizeOf(v.Type())
	if len(data) < need {
		return 0, fmt.Errorf("databox: need %d bytes for %v, have %d", need, v.Type(), len(data))
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(data[0] != 0)
		return 1, nil
	case reflect.Int8:
		v.SetInt(int64(int8(data[0])))
		return 1, nil
	case reflect.Uint8:
		v.SetUint(uint64(data[0]))
		return 1, nil
	case reflect.Int16:
		v.SetInt(int64(int16(binary.LittleEndian.Uint16(data))))
		return 2, nil
	case reflect.Uint16:
		v.SetUint(uint64(binary.LittleEndian.Uint16(data)))
		return 2, nil
	case reflect.Int32:
		v.SetInt(int64(int32(binary.LittleEndian.Uint32(data))))
		return 4, nil
	case reflect.Uint32:
		v.SetUint(uint64(binary.LittleEndian.Uint32(data)))
		return 4, nil
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return 4, nil
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(binary.LittleEndian.Uint64(data)))
		return 8, nil
	case reflect.Uint, reflect.Uint64, reflect.Uintptr:
		v.SetUint(binary.LittleEndian.Uint64(data))
		return 8, nil
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return 8, nil
	case reflect.Complex64:
		re := math.Float32frombits(binary.LittleEndian.Uint32(data))
		im := math.Float32frombits(binary.LittleEndian.Uint32(data[4:]))
		v.SetComplex(complex(float64(re), float64(im)))
		return 8, nil
	case reflect.Complex128:
		re := math.Float64frombits(binary.LittleEndian.Uint64(data))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		v.SetComplex(complex(re, im))
		return 16, nil
	case reflect.Array:
		p := 0
		for i := 0; i < v.Len(); i++ {
			n, err := readFixed(data[p:], v.Index(i))
			if err != nil {
				return 0, err
			}
			p += n
		}
		return p, nil
	case reflect.Struct:
		if v.NumField() == 0 {
			return 1, nil
		}
		p := 0
		for i := 0; i < v.NumField(); i++ {
			n, err := readFixed(data[p:], v.Field(i))
			if err != nil {
				return 0, err
			}
			p += n
		}
		return p, nil
	default:
		return 0, fmt.Errorf("databox: readFixed on non-fixed kind %v", v.Kind())
	}
}
