package colenc

import (
	"os"
	"testing"
)

// fig3Golden is the committed Fig. 3 columnar stream: the sweep table the
// serving layer encodes most often.
func fig3Golden(b *testing.B) []byte {
	b.Helper()
	data, err := os.ReadFile("../../cmd/simra-char/testdata/fig3.colenc.golden")
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkColencEncode times encoding the decoded Fig. 3 golden table.
func BenchmarkColencEncode(b *testing.B) {
	t, err := Decode(fig3Golden(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(t, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColencDecode times decoding the Fig. 3 golden stream.
func BenchmarkColencDecode(b *testing.B) {
	data := fig3Golden(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColencFooter times reading the Fig. 3 golden stream's row and
// batch counts, as an unpaged columnar response's headers need them.
func BenchmarkColencFooter(b *testing.B) {
	data := fig3Golden(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Footer(data); err != nil {
			b.Fatal(err)
		}
	}
}
