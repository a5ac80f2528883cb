package core

import "testing"

// BenchmarkStorePtr measures the host cost of the region-write barrier.
// sameregion stores a pointer into its own region, the case that dominates
// the paper's applications and the serving mixes: all three translations
// hit the last-region cache and no count changes. cross alternates a
// pointer into another region with nil, so every store updates a count.
func BenchmarkStorePtr(b *testing.B) {
	b.Run("sameregion", func(b *testing.B) {
		rt, _ := newRT(true)
		cln := rt.SizeCleanup(16)
		r := rt.NewRegion()
		p, q := rt.Ralloc(r, 16, cln), rt.Ralloc(r, 16, cln)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.StorePtr(p, q)
		}
	})
	b.Run("cross", func(b *testing.B) {
		rt, _ := newRT(true)
		cln := rt.SizeCleanup(16)
		r, s := rt.NewRegion(), rt.NewRegion()
		p, q := rt.Ralloc(r, 16, cln), rt.Ralloc(s, 16, cln)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.StorePtr(p, q)
			rt.StorePtr(p, 0)
		}
	})
}
