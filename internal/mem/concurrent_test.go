package mem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPageCreation: goroutines standing in for memory
// controllers on different partitions share one Sparse. Each creates and
// writes pages of its own, interleaved with the others' pages as the chip
// interleaves pages over controllers, both below the directory's limit and
// near 2^63; after each page it reads the newest page every other goroutine
// has finished, and a page nobody writes. Run it under -race.
func TestConcurrentPageCreation(t *testing.T) {
	const workers, pages = 4, 96
	s := NewSparse()
	addr := func(base uint64, w, i int) uint64 { return base + uint64(i*workers+w)*pageSize }
	bases := []uint64{0x1_0000, 1 << 63}
	var finished [workers]atomic.Int64 // pages each goroutine has written in full
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pages; i++ {
				for _, base := range bases {
					a := addr(base, w, i)
					s.Write(a, 8, uint64(w)<<32|uint64(i))
					s.WriteBytes(a+pageSize-2, []byte{byte(w), byte(i)})
				}
				finished[w].Store(int64(i + 1))
				for o := 0; o < workers; o++ {
					n := int(finished[o].Load())
					if n == 0 {
						continue
					}
					for _, base := range bases {
						a := addr(base, o, n-1)
						if got, want := s.Read(a, 8), uint64(o)<<32|uint64(n-1); got != want {
							t.Errorf("goroutine %d read %#x at %#x, want %#x", w, got, a, want)
						}
						if got := s.ReadBytes(a+pageSize-2, 2); got[0] != byte(o) || got[1] != byte(n-1) {
							t.Errorf("goroutine %d read %v at the end of page %#x", w, got, a)
						}
					}
				}
				for _, base := range bases {
					if got := s.ReadUint64(addr(base, w, pages+i)); got != 0 {
						t.Errorf("an unwritten page read %#x", got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Footprint(), workers*pages*len(bases); got != want {
		t.Fatalf("footprint %d, want %d", got, want)
	}
}
