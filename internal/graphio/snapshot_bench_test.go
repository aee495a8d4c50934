package graphio

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// benchSnapshot is the codec benchmarks' state: n = 10⁵ after 2·10⁴
// DASH heals, about 8 MB of snapshot text. It is built once per test
// binary.
var benchSnapshot = sync.OnceValues(func() (*Snapshot, []byte) {
	s := healedSnapshot(100_000, 20_000)
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s); err != nil {
		panic(err)
	}
	return s, b.Bytes()
})

func BenchmarkSnapshotWrite(b *testing.B) {
	s, text := benchSnapshot()
	b.SetBytes(int64(len(text)))
	for b.Loop() {
		if err := WriteSnapshot(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	_, text := benchSnapshot()
	b.SetBytes(int64(len(text)))
	for b.Loop() {
		if _, err := ReadSnapshot(bytes.NewReader(text), 0); err != nil {
			b.Fatal(err)
		}
	}
}
