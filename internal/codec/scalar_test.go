package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

type (
	namedInt8  int8
	namedUint  uint
	namedFloat float32
	namedBool  bool
	// gobDecInt and binUint decode themselves, so gob refuses to fill them
	// from a plain scalar; textInt's UnmarshalText is ignored by gob.
	gobDecInt int64
	binUint   uint64
	textInt   int
)

func (*gobDecInt) GobDecode([]byte) error     { return nil }
func (*binUint) UnmarshalBinary([]byte) error { return nil }
func (*textInt) UnmarshalText([]byte) error   { return nil }

// scalarValues covers every built-in scalar kind, with the extremes of each
// and values that overflow the narrower destinations.
var scalarValues = []any{
	int(-7), int(math.MaxInt), int8(math.MinInt8), int16(300), int32(math.MinInt32),
	int64(0), int64(1) << 40, int64(math.MinInt64), int64(math.MaxInt64),
	uint(7), uint8(math.MaxUint8), uint16(math.MaxUint16), uint32(math.MaxUint32),
	uint64(300), uint64(math.MaxUint64), uintptr(42),
	float32(1.5), float32(math.MaxFloat32), float64(math.Pi), math.Copysign(0, -1), 1e300,
	math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64,
	true, false,
}

// scalarDests builds one fresh destination per call: pointers to every
// scalar kind, named types, deeper pointers, types gob refuses, and
// non-pointer or nil destinations.
var scalarDests = []func() any{
	func() any { return new(int) }, func() any { return new(int8) }, func() any { return new(int16) },
	func() any { return new(int32) }, func() any { return new(int64) },
	func() any { return new(uint) }, func() any { return new(uint8) }, func() any { return new(uint16) },
	func() any { return new(uint32) }, func() any { return new(uint64) }, func() any { return new(uintptr) },
	func() any { return new(float32) }, func() any { return new(float64) }, func() any { return new(bool) },
	func() any { return new(namedInt8) }, func() any { return new(time.Duration) },
	func() any { return new(namedUint) }, func() any { return new(namedFloat) }, func() any { return new(namedBool) },
	func() any { return new(*int64) }, func() any { return new(**float32) }, func() any { return new(*bool) },
	func() any { return new(gobDecInt) }, func() any { return new(binUint) }, func() any { return new(textInt) },
	func() any { return new(any) }, func() any { return new(string) }, func() any { return new([]byte) },
	func() any { return new(struct{ X int }) },
	func() any { return nil }, func() any { return int64(0) }, func() any { return (*int64)(nil) },
}

// deref follows out's pointers down to the stored value and prints it, so
// two destinations compare equal when they hold the same value (NaN too).
func deref(out any) string {
	v := reflect.ValueOf(out)
	for v.IsValid() && v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if !v.IsValid() {
		return "<nil>"
	}
	return fmt.Sprintf("%T %#v", v.Interface(), v.Interface())
}

func gobRoundTrip(v, out any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(out)
}

// TestScalarFastPathMatchesGob: for every scalar kind × destination, the
// fast path decodes the same value gob does from the same input, or both
// fail — named types, deeper pointers and overflow included.
func TestScalarFastPathMatchesGob(t *testing.T) {
	for _, v := range scalarValues {
		data := MustEncode(v)
		if data[0] < tagInt || data[0] > tagBool {
			t.Fatalf("%T %v encoded with tag %d, want a scalar tag", v, v, data[0])
		}
		for _, dest := range scalarDests {
			fast, slow := dest(), dest()
			errFast, errGob := Decode(data, fast), gobRoundTrip(v, slow)
			name := fmt.Sprintf("%T(%v) into %T", v, v, fast)
			if (errFast == nil) != (errGob == nil) {
				t.Errorf("%s: fast path err %v, gob err %v", name, errFast, errGob)
				continue
			}
			if errFast == nil && deref(fast) != deref(slow) {
				t.Errorf("%s: fast path decoded %s, gob %s", name, deref(fast), deref(slow))
			}
		}
	}
}

// TestScalarWireForm pins the scalar tags' wire forms, and that named
// scalar types stay on gob.
func TestScalarWireForm(t *testing.T) {
	float32Bits := binary.LittleEndian.AppendUint64([]byte{tagFloat}, math.Float64bits(1.5))
	for _, tc := range []struct {
		v    any
		want []byte
	}{
		{int64(0), []byte{tagInt, 0}},
		{int64(-1), []byte{tagInt, 1}},
		{int8(1), []byte{tagInt, 2}},
		{int(-64), []byte{tagInt, 0x7f}},
		{int(64), []byte{tagInt, 0x80, 0x01}},
		{uint8(200), []byte{tagUint, 0xc8, 0x01}},
		{uintptr(1), []byte{tagUint, 1}},
		{float32(1.5), float32Bits},
		{float64(1.5), float32Bits},
		{true, []byte{tagBool, 1}},
		{false, []byte{tagBool, 0}},
	} {
		if got := MustEncode(tc.v); !bytes.Equal(got, tc.want) {
			t.Errorf("Encode(%T %v) = %x, want %x", tc.v, tc.v, got, tc.want)
		}
	}
	for _, v := range []any{time.Duration(5), namedBool(true), namedFloat(2)} {
		if tag := MustEncode(v)[0]; tag != tagGob {
			t.Errorf("Encode(%T) used tag %d, want gob", v, tag)
		}
	}
}

// TestScalarCorruptPayloads: a truncated or overlong varint, trailing
// bytes, a float of the wrong width and a bool byte other than 0 or 1 are
// all rejected, and leave the destination untouched.
func TestScalarCorruptPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		dest func() any
	}{
		{"int empty", []byte{tagInt}, func() any { return new(int64) }},
		{"int truncated", []byte{tagInt, 0x80}, func() any { return new(int64) }},
		{"int trailing", []byte{tagInt, 2, 0}, func() any { return new(int64) }},
		{"int overlong", append([]byte{tagInt}, bytes.Repeat([]byte{0xff}, 10)...), func() any { return new(int64) }},
		{"int trailing named", []byte{tagInt, 2, 0}, func() any { return new(time.Duration) }},
		{"uint empty", []byte{tagUint}, func() any { return new(uint64) }},
		{"uint truncated", []byte{tagUint, 0xff}, func() any { return new(uint64) }},
		{"uint trailing", []byte{tagUint, 1, 2}, func() any { return new(uint8) }},
		{"float short", []byte{tagFloat, 0, 0, 0, 0, 0, 0, 0}, func() any { return new(float64) }},
		{"float long", append([]byte{tagFloat}, make([]byte, 9)...), func() any { return new(float32) }},
		{"bool empty", []byte{tagBool}, func() any { return new(bool) }},
		{"bool two", []byte{tagBool, 2}, func() any { return new(bool) }},
		{"bool trailing", []byte{tagBool, 1, 0}, func() any { return new(bool) }},
	} {
		out := tc.dest()
		before := deref(out)
		if err := Decode(tc.data, out); err == nil {
			t.Errorf("%s: %x decoded into %s without error", tc.name, tc.data, deref(out))
		}
		if after := deref(out); after != before {
			t.Errorf("%s: failed decode changed the destination from %s to %s", tc.name, before, after)
		}
	}
}

// FuzzDecode: no input makes Decode panic, whatever the destination, and a
// scalar that decodes re-encodes to a payload that decodes to it again.
func FuzzDecode(f *testing.F) {
	for _, v := range []any{
		trajectory{States: [][]float64{{1}}, Rewards: []float64{2}, Length: 1, Done: true},
		[]float64{1, math.NaN()}, []float32{-2.5}, []byte("bytes"), "string",
		int64(-1) << 40, int8(-3), uint64(math.MaxUint64), uint16(7), float32(0.25), math.Inf(1), true, false,
	} {
		f.Add(MustEncode(v))
	}
	for _, raw := range [][]byte{
		{}, {tagInt}, {tagInt, 0x80}, {tagUint, 1, 2}, {tagFloat, 1}, {tagBool, 2}, {9}, {tagGob, 1, 2, 3},
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dest := range scalarDests {
			_ = Decode(data, dest())
		}
		for _, dest := range []any{new([]float64), new([]float32), new(trajectory), new(**uint16)} {
			_ = Decode(data, dest)
		}
		var i int64
		if Decode(data, &i) == nil && len(data) > 0 && data[0] == tagInt {
			var again int64
			if err := Decode(MustEncode(i), &again); err != nil || again != i {
				t.Fatalf("int64 %d re-decoded as %d, %v", i, again, err)
			}
		}
	})
}

// BenchmarkEncodeDecodeScalar measures one Encode plus one Decode of the
// scalars tiny tasks pass and return; run with -benchmem for the
// allocations each costs.
func BenchmarkEncodeDecodeScalar(b *testing.B) {
	b.Run("int64", func(b *testing.B) { benchScalar(b, int64(1)<<40) })
	b.Run("bool", func(b *testing.B) { benchScalar(b, true) })
	b.Run("float64", func(b *testing.B) { benchScalar(b, math.Pi) })
}

func benchScalar[T comparable](b *testing.B, v T) {
	b.ReportAllocs()
	for b.Loop() {
		data, err := Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		var out T
		if err := Decode(data, &out); err != nil || out != v {
			b.Fatalf("decoded %v, %v", out, err)
		}
	}
}
