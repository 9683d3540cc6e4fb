package codec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -3.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %v vs %v", in, out)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{1, -2.5, 0.125}
	var out []float32
	if err := Decode(MustEncode(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("float32 round trip mismatch")
	}
}

func TestBytesAndStringRoundTrip(t *testing.T) {
	var b []byte
	if err := Decode(MustEncode([]byte{1, 2, 3}), &b); err != nil || !reflect.DeepEqual(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes round trip: %v %v", b, err)
	}
	var s string
	if err := Decode(MustEncode("hello"), &s); err != nil || s != "hello" {
		t.Fatalf("string round trip: %q %v", s, err)
	}
	var empty []byte
	if err := Decode(MustEncode([]byte{}), &empty); err != nil || len(empty) != 0 {
		t.Fatal("empty bytes round trip failed")
	}
}

// TestDecodedBytesAreClippedView: a decoded []byte shares the payload's
// memory instead of copying it, and its capacity is clipped so an append
// reallocates rather than writing into the shared buffer — here one with
// spare capacity, as a payload read back from a spill file has.
func TestDecodedBytesAreClippedView(t *testing.T) {
	data := make([]byte, 0, 64)
	data = append(data, MustEncode([]byte("shared"))...)
	var out []byte
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if string(out) != "shared" {
		t.Fatalf("decoded %q", out)
	}
	if &out[0] != &data[1] {
		t.Fatal("decode copied the payload instead of returning a view")
	}
	if cap(out) != len(out) {
		t.Fatalf("view capacity %d, want %d (clipped to its length)", cap(out), len(out))
	}
	grown := append(out, '!')
	if &grown[0] == &data[1] {
		t.Fatal("append on a decoded view wrote into the input's backing array")
	}
	if string(data[1:]) != "shared" || data[:cap(data)][len(data)] != 0 {
		t.Fatal("append on a decoded view changed the input")
	}
}

type trajectory struct {
	States  [][]float64
	Rewards []float64
	Length  int
	Done    bool
}

func TestStructRoundTripViaGob(t *testing.T) {
	in := trajectory{
		States:  [][]float64{{1, 2}, {3, 4}},
		Rewards: []float64{0.5, -1},
		Length:  2,
		Done:    true,
	}
	var out trajectory
	if err := Decode(MustEncode(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("struct round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	var i int
	if err := Decode(MustEncode(42), &i); err != nil || i != 42 {
		t.Fatalf("int round trip: %d %v", i, err)
	}
	var f float64
	if err := Decode(MustEncode(2.5), &f); err != nil || f != 2.5 {
		t.Fatalf("float round trip: %v %v", f, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if err := Decode(nil, &struct{}{}); err == nil {
		t.Fatal("empty payload must fail")
	}
	if err := Decode([]byte{99, 1, 2}, &struct{}{}); err == nil {
		t.Fatal("unknown tag must fail")
	}
	// Wrong destination types.
	var s string
	if err := Decode(MustEncode([]float64{1}), &s); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var f []float64
	if err := Decode(MustEncode("str"), &f); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var f32 []float32
	if err := Decode(MustEncode([]byte("x")), &f32); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var b []byte
	if err := Decode(MustEncode(1.0), &b); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Corrupt float payloads.
	if err := Decode([]byte{1, 0, 0, 0}, &f); err == nil {
		t.Fatal("corrupt float64 payload must fail")
	}
	if err := Decode([]byte{2, 0, 0, 0, 0, 0}, &f32); err == nil {
		t.Fatal("corrupt float32 payload must fail")
	}
	// Encoding a channel fails via gob.
	if _, err := Encode(make(chan int)); err == nil {
		t.Fatal("encoding a channel must fail")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode must panic on unencodable values")
		}
	}()
	MustEncode(make(chan int))
}

// Property: float64 slices round-trip bit-exactly.
func TestFloat64Property(t *testing.T) {
	f := func(vals []float64) bool {
		var out []float64
		if err := Decode(MustEncode(vals), &out); err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecodeBytes measures decoding an encoded []byte at a medium and a
// large object size; run with -benchmem to see the bytes copied per read.
func BenchmarkDecodeBytes(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"64KiB", 64 << 10}, {"8MiB", 8 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			data := MustEncode(make([]byte, tc.size))
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			for b.Loop() {
				var out []byte
				if err := Decode(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
