package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/matrix"
)

// quantizedFrame hand-builds the wire bytes of a one-field quantized
// message, so tests can state headers no encoder would produce.
func quantizedFrame(rows, cols uint32, bpe uint8, n uint32) []byte {
	le := binary.LittleEndian
	body := le.AppendUint32(nil, msgMagic)
	body = le.AppendUint16(body, 1)
	body = append(body, 'q')
	body = le.AppendUint32(body, 0) // from
	body = le.AppendUint32(body, 0) // to
	body = append(body, fieldQuantized)
	body = le.AppendUint32(body, rows)
	body = le.AppendUint32(body, cols)
	body = le.AppendUint64(body, math.Float64bits(1))
	body = append(body, bpe)
	body = le.AppendUint32(body, n)
	body = append(body, make([]byte, (int(n)*int(bpe)+7)/8)...)
	body = append(body, fieldEnd)
	return append(le.AppendUint32(nil, uint32(len(body))), body...)
}

// matrixFrame hand-builds a one-field float64 matrix message carrying the
// given entries under an arbitrary header.
func matrixFrame(rows, cols uint32, entries int) []byte {
	le := binary.LittleEndian
	body := le.AppendUint32(nil, msgMagic)
	body = le.AppendUint16(body, 1)
	body = append(body, 'm')
	body = le.AppendUint32(body, 0)
	body = le.AppendUint32(body, 0)
	body = append(body, fieldMatrix)
	body = le.AppendUint32(body, rows)
	body = le.AppendUint32(body, cols)
	body = append(body, make([]byte, 8*entries)...)
	body = append(body, fieldEnd)
	return append(le.AppendUint32(nil, uint32(len(body))), body...)
}

// A quantized header whose value count disagrees with Rows×Cols used to
// decode, and Dequantize then indexed past the 1×1 matrix: any peer could
// crash a coordinator. Dimensions past the frame limit are rejected even
// when the other dimension is 0.
func TestDecodeRejectsMalformedQuantizedFrames(t *testing.T) {
	for name, wire := range map[string][]byte{
		"1x1 with 4 values":    quantizedFrame(1, 1, 8, 4),
		"2x2 with 1 value":     quantizedFrame(2, 2, 8, 1),
		"quantized (2^32-1)x0": quantizedFrame(math.MaxUint32, 0, 8, 0),
		"quantized 0x(2^32-1)": quantizedFrame(0, math.MaxUint32, 8, 0),
		"matrix (2^32-1)x0":    matrixFrame(math.MaxUint32, 0, 0),
		"matrix 0x(2^32-1)":    matrixFrame(0, math.MaxUint32, 0),
	} {
		if m, err := Decode(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
	m, err := Decode(bytes.NewReader(quantizedFrame(2, 2, 8, 4)))
	if err != nil {
		t.Fatalf("consistent quantized frame rejected: %v", err)
	}
	if r, c := m.Quantized.Dequantize().Dims(); r != 2 || c != 2 {
		t.Fatalf("dequantized %d×%d", r, c)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode and, whenever they decode, runs
// what the protocols run on a received message: Dequantize, matrix row and
// entry reads, SampleRows.RowVec on every row, and a re-encode.
func FuzzDecode(f *testing.F) {
	q, err := NewQuantizer(0.5).Quantize(matrix.NewFromRows([][]float64{{1, -2, 3}, {0.5, 4, -1}}))
	if err != nil {
		f.Fatal(err)
	}
	samples := NewSampleRows(5)
	samples.AppendRow(7, matrix.NewSparseVector(5, []int{1, 4}, []float64{2, -3}))
	samples.AppendRow(9, matrix.NewSparseVector(5, nil, nil))
	for _, msg := range []*Message{
		{Kind: "scalars", Scalars: []float64{1, math.Inf(1)}, Ints: []int64{-1, 3}},
		{Kind: "sketch", Matrix: matrix.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})},
		{Kind: "sketch32", Matrix: matrix.NewFromRows([][]float64{{1.5, -2}}), MatrixPrecision: Float32},
		{Kind: "quant", Quantized: q},
		{Kind: "samples", Samples: samples},
	} {
		var buf bytes.Buffer
		if err := msg.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(quantizedFrame(1, 1, 8, 4))
	f.Add(matrixFrame(math.MaxUint32, 0, 0))
	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := Decode(bytes.NewReader(wire))
		if err != nil {
			return
		}
		defer m.Release()
		if m.Matrix != nil {
			r, c := m.Matrix.Dims()
			for i := 0; i < r && i < 1<<16; i++ {
				_ = m.Matrix.Row(i)
			}
			if r > 0 && c > 0 {
				_ = m.Matrix.At(r-1, c-1)
			}
		}
		if m.Quantized != nil {
			d := m.Quantized.Dequantize()
			if r, c := d.Dims(); r != m.Quantized.Rows || c != m.Quantized.Cols {
				t.Fatalf("dequantized %d×%d from a %d×%d header", r, c, m.Quantized.Rows, m.Quantized.Cols)
			}
		}
		if s := m.Samples; s != nil {
			for i := 0; i < s.Rows(); i++ {
				s.RowVec(i)
			}
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
	})
}
