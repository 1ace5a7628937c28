package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestMessageBitsAndWords(t *testing.T) {
	m := &Message{
		Kind:    "test",
		From:    0,
		To:      CoordinatorID,
		Scalars: []float64{1, 2, 3},
		Ints:    []int64{7},
		Matrix:  matrix.New(2, 5),
	}
	wantBits := int64(3+1+10) * 64
	if m.Bits() != wantBits {
		t.Fatalf("Bits = %d, want %d", m.Bits(), wantBits)
	}
	if m.Words() != 14 {
		t.Fatalf("Words = %v, want 14", m.Words())
	}
	empty := &Message{Kind: "ping"}
	if empty.Bits() != 0 {
		t.Fatal("empty message must cost 0")
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mat := workload.Gaussian(rng, 3, 4)
	z := NewQuantizer(0.25)
	q, err := z.Quantize(workload.Gaussian(rng, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	in := &Message{
		Kind:      "sketch",
		From:      2,
		To:        CoordinatorID,
		Scalars:   []float64{1.5, -2.25, math.Pi},
		Ints:      []int64{-9, 0, 42},
		Matrix:    mat,
		Quantized: q,
	}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.From != in.From || out.To != in.To {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i, v := range in.Scalars {
		if out.Scalars[i] != v {
			t.Fatalf("scalar %d mismatch", i)
		}
	}
	for i, v := range in.Ints {
		if out.Ints[i] != v {
			t.Fatalf("int %d mismatch", i)
		}
	}
	if !out.Matrix.Equal(in.Matrix) {
		t.Fatal("matrix mismatch")
	}
	if out.Quantized.Rows != q.Rows || out.Quantized.Step != q.Step ||
		out.Quantized.BitsPerEntry != q.BitsPerEntry {
		t.Fatal("quantized header mismatch")
	}
	for i, v := range q.Values {
		if out.Quantized.Values[i] != v {
			t.Fatalf("quantized value %d mismatch", i)
		}
	}
}

func TestMessageDecodeEmptyFields(t *testing.T) {
	in := &Message{Kind: "ping", From: CoordinatorID, To: 3}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scalars != nil || out.Matrix != nil || out.Quantized != nil || out.Ints != nil {
		t.Fatal("expected empty payload")
	}
}

func TestDecodeBadInput(t *testing.T) {
	// Truncated stream.
	if _, err := Decode(bytes.NewReader([]byte{1, 0, 0})); err == nil {
		t.Fatal("expected error on truncated frame length")
	}
	// Bad magic inside a well-formed frame.
	frame := []byte{8, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	if _, err := Decode(bytes.NewReader(frame)); err == nil {
		t.Fatal("expected bad-magic error")
	}
	// Oversized frame header.
	huge := []byte{255, 255, 255, 255}
	if _, err := Decode(bytes.NewReader(huge)); err == nil {
		t.Fatal("expected frame-size error")
	}
}

// Property: encode/decode is the identity on scalar payloads.
func TestPropCodecScalars(t *testing.T) {
	f := func(vals []float64, kind string) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0 // NaN != NaN breaks comparison, not codec
			}
		}
		if len(kind) > 1000 {
			kind = kind[:1000]
		}
		in := &Message{Kind: kind, From: 1, To: 2, Scalars: vals}
		var buf bytes.Buffer
		if err := in.Encode(&buf); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil || out.Kind != kind || len(out.Scalars) != len(vals) {
			return false
		}
		for i, v := range vals {
			if out.Scalars[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := workload.Gaussian(rng, 6, 7)
	step := 1e-3
	q, err := NewQuantizer(step).Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	back := q.Dequantize()
	if r, c := back.Dims(); r != 6 || c != 7 {
		t.Fatalf("dims %d×%d", r, c)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(back.At(i, j)-m.At(i, j)) > step/2+1e-12 {
				t.Fatalf("rounding error at (%d,%d): %v", i, j, back.At(i, j)-m.At(i, j))
			}
		}
	}
}

func TestQuantizerBitsPerEntry(t *testing.T) {
	m := matrix.NewFromRows([][]float64{{0, 1, -3}})
	q, err := NewQuantizer(1).Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	// maxAbs = 3 → 2 magnitude bits + sign = 3.
	if q.BitsPerEntry != 3 {
		t.Fatalf("BitsPerEntry = %d, want 3", q.BitsPerEntry)
	}
	if q.Bits() != 9 {
		t.Fatalf("Bits = %d, want 9", q.Bits())
	}
	zero, err := NewQuantizer(1).Quantize(matrix.New(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if zero.BitsPerEntry != 1 {
		t.Fatalf("zero matrix BitsPerEntry = %d, want 1", zero.BitsPerEntry)
	}
}

func TestQuantizerWordSavings(t *testing.T) {
	// The §3.3 point: bounded-magnitude entries cost ≪ 64 bits each.
	rng := rand.New(rand.NewSource(3))
	m := workload.IntegerMatrix(rng, 20, 20, 100)
	q, err := NewQuantizer(1).Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	if q.BitsPerEntry > 9 { // 7 magnitude bits + sign + slack
		t.Fatalf("BitsPerEntry = %d for entries ≤ 100", q.BitsPerEntry)
	}
	if q.Words() >= 400 { // raw float cost would be 400 words
		t.Fatalf("quantized words %v not below float words 400", q.Words())
	}
	if !q.Dequantize().EqualApprox(m, 1e-12) {
		t.Fatal("integer matrix must quantize exactly at step 1")
	}
}

func TestQuantizerErrors(t *testing.T) {
	m := matrix.NewFromRows([][]float64{{math.NaN()}})
	if _, err := NewQuantizer(1).Quantize(m); err == nil {
		t.Fatal("expected NaN error")
	}
	big := matrix.NewFromRows([][]float64{{1e300}})
	if _, err := NewQuantizer(1e-20).Quantize(big); err == nil {
		t.Fatal("expected overflow error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for step 0")
		}
	}()
	NewQuantizer(0)
}

func TestStepFor(t *testing.T) {
	if got := StepFor(100, 10, 0.1); math.Abs(got-1e-4) > 1e-18 {
		t.Fatalf("StepFor = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StepFor(0, 1, 0.1)
}

func TestRoundTripError(t *testing.T) {
	if got := RoundTripError(2, 3, 10, 0.5); got != 2*3*0.5*(20+0.5) {
		t.Fatalf("RoundTripError = %v", got)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Record(&Message{From: 0, To: CoordinatorID, Scalars: []float64{1, 2}})
	m.Record(&Message{From: CoordinatorID, To: 0, Ints: []int64{1}})
	m.Record(&Message{From: 1, To: CoordinatorID, Matrix: matrix.New(2, 2)})
	m.AddRound()
	m.AddRound()
	if m.Words() != 7 {
		t.Fatalf("Words = %v, want 7", m.Words())
	}
	if m.Bits() != 7*64 {
		t.Fatalf("Bits = %d", m.Bits())
	}
	if m.Messages() != 3 {
		t.Fatalf("Messages = %d", m.Messages())
	}
	if m.Rounds() != 2 {
		t.Fatalf("Rounds = %d", m.Rounds())
	}
	if m.LinkWords(0, CoordinatorID) != 2 {
		t.Fatalf("LinkWords = %v", m.LinkWords(0, CoordinatorID))
	}
	if m.LinkWords(5, 6) != 0 {
		t.Fatal("unknown link must be 0")
	}
	if s := m.Summary(); s == "" {
		t.Fatal("empty summary")
	}
	m.Reset()
	if m.Words() != 0 || m.Messages() != 0 || m.Rounds() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(id int) {
			for i := 0; i < 100; i++ {
				m.Record(&Message{From: id, To: CoordinatorID, Scalars: []float64{1}})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if m.Words() != 800 {
		t.Fatalf("concurrent Words = %v, want 800", m.Words())
	}
}

func TestBitPackRoundTrip(t *testing.T) {
	cases := []struct {
		values []int64
		bits   int
	}{
		{[]int64{0, 1, -1, 3, -4}, 3},
		{[]int64{7, -8}, 4},
		{[]int64{0}, 1},
		{[]int64{1 << 40, -(1 << 40)}, 42},
		{[]int64{-1 << 63, 1<<63 - 1}, 64},
		{nil, 5},
	}
	for _, c := range cases {
		packed, err := packBits(c.values, c.bits)
		if err != nil {
			t.Fatalf("%v @%d: %v", c.values, c.bits, err)
		}
		if want := (len(c.values)*c.bits + 7) / 8; len(packed) != want {
			t.Fatalf("%v @%d: packed %d bytes, want %d", c.values, c.bits, len(packed), want)
		}
		got, err := unpackBits(packed, len(c.values), c.bits)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range c.values {
			if got[i] != v {
				t.Fatalf("%v @%d: got %v", c.values, c.bits, got)
			}
		}
	}
}

func TestBitPackErrors(t *testing.T) {
	if _, err := packBits([]int64{4}, 3); err == nil {
		t.Fatal("4 must not fit in 3 signed bits")
	}
	if _, err := packBits([]int64{1}, 0); err == nil {
		t.Fatal("width 0 must error")
	}
	if _, err := packBits([]int64{1}, 65); err == nil {
		t.Fatal("width 65 must error")
	}
	if _, err := unpackBits([]byte{1}, 4, 7); err == nil {
		t.Fatal("short data must error")
	}
	if _, err := unpackBits(nil, 0, 70); err == nil {
		t.Fatal("bad width must error")
	}
}

// Property: pack/unpack is the identity for random values at random widths.
func TestPropBitPack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(64)
		n := rng.Intn(50)
		vals := make([]int64, n)
		for i := range vals {
			if bits >= 63 {
				u := rng.Uint64()
				if bits == 63 {
					// Keep within 63 signed bits: drop the top magnitude bit.
					vals[i] = int64(u<<1) >> 1 >> 1
				} else {
					vals[i] = int64(u)
				}
			} else {
				span := int64(1) << uint(bits)
				vals[i] = rng.Int63n(span) - span/2
			}
		}
		packed, err := packBits(vals, bits)
		if err != nil {
			return false
		}
		got, err := unpackBits(packed, n, bits)
		if err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedWireSizeMatchesAccounting(t *testing.T) {
	// The frame bytes for a quantized matrix must be close to Bits()/8, not
	// 8 bytes per value — the wire is as compact as the accounting claims.
	rng := rand.New(rand.NewSource(70))
	m := workload.IntegerMatrix(rng, 50, 50, 100)
	q, err := NewQuantizer(1).Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	msg := &Message{Kind: "q", Quantized: q}
	if err := msg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	payload := int64(buf.Len()) * 8 // wire bits incl. framing
	if payload > q.Bits()+512 {     // allow a small fixed header overhead
		t.Fatalf("wire %d bits vs accounted %d", payload, q.Bits())
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quantized.Dequantize().EqualApprox(m, 1e-12) {
		t.Fatal("packed round trip lost data")
	}
}

// A length prefix is a claim, not a budget: a peer that announces a
// maximal frame and then hangs up must cost the decoder about what it sent,
// not the gigabyte it claimed.
func TestDecodeAllocationBoundedByBytesReceived(t *testing.T) {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], maxFrameBytes)
	for _, sent := range []int{0, 100 << 10} {
		wire := append(prefix[:], make([]byte, sent)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(wire))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("sent %d of %d claimed bytes: truncated frame decoded", sent, maxFrameBytes)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("sent %d of %d claimed bytes: decode allocated %d bytes", sent, maxFrameBytes, grew)
		}
	}
}

// Frame buffers above maxPooledFrame serve one message and are dropped, on
// both sides of the codec, so one large frame cannot pin its memory in the
// pool.
func TestOversizedFrameBuffersAreNotPooled(t *testing.T) {
	big := &Message{Kind: "big", Matrix: matrix.New(maxPooledFrame/8/64+1, 64)}
	var buf bytes.Buffer
	if err := big.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= maxPooledFrame {
		t.Fatalf("test frame of %d bytes is not oversized", buf.Len())
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := out.Matrix.Dims(); r != big.Matrix.Rows() || c != 64 {
		t.Fatalf("decoded %d×%d", r, c)
	}
	out.Release()
	for i := 0; i < 16; i++ {
		if fp := frameBufs.Get().(*[]byte); cap(*fp) > maxPooledFrame {
			t.Fatalf("pool holds a %d-byte frame buffer", cap(*fp))
		}
	}
}
