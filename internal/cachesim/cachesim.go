// Package cachesim models the memory hierarchy of the paper's test machine,
// a 167 MHz UltraSparc-I, closely enough to reproduce Figure 10: processor
// cycles lost to read stalls (waiting for the result of a load) and write
// stalls (store buffer full).
//
// The model is a two-level direct-mapped cache, as on the paper's machine,
// plus a leaky-bucket store buffer. Each simulated memory access is pushed
// through Access, which returns the stall cycles that access causes. The
// model is deterministic: the same access trace always yields the same
// stall counts.
package cachesim

// Config describes the cache hierarchy. The zero value is not useful; use
// UltraSparcI for the paper's machine.
type Config struct {
	L1Size int // bytes
	L2Size int // bytes
	// LineSize is shared by both levels, in bytes. The paper offsets region
	// headers by the 64-byte second-level line size.
	LineSize int

	L1MissPenalty int // read-stall cycles on an L1 miss that hits in L2
	L2MissPenalty int // read-stall cycles on an L2 miss (memory access)

	// Store buffer model: a write miss occupies the buffer for the relevant
	// miss penalty; every access drains DrainPerAccess cycles of pending
	// write work. When more than StoreBufferCap cycles of writes are
	// pending, the processor stalls for the excess.
	StoreBufferCap int
	DrainPerAccess int
}

// UltraSparcI returns a configuration approximating the paper's machine:
// 16 KB direct-mapped L1 data cache, 512 KB direct-mapped unified L2,
// 64-byte L2 lines.
func UltraSparcI() Config {
	return Config{
		L1Size:         16 * 1024,
		L2Size:         512 * 1024,
		LineSize:       64,
		L1MissPenalty:  6,
		L2MissPenalty:  42,
		StoreBufferCap: 128,
		DrainPerAccess: 3,
	}
}

// Cache is a two-level direct-mapped cache plus store-buffer model.
type Cache struct {
	cfg Config
	// l1 and l2 hold one tag per line slot: the line address plus one, so
	// that 0 means empty. A line's slot is its tag masked to the level's
	// size.
	l1, l2         []uint32
	l1Mask, l2Mask uint32
	lineShift      uint // log2(LineSize)
	pending        int  // cycles of write work queued in the store buffer

	Reads       uint64
	Writes      uint64
	L1Misses    uint64
	L2Misses    uint64
	ReadStalls  uint64
	WriteStalls uint64
}

// New builds a cache from cfg. Sizes must be powers of two.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg: cfg,
		l1:  make([]uint32, max(cfg.L1Size/cfg.LineSize, 1)),
		l2:  make([]uint32, max(cfg.L2Size/cfg.LineSize, 1)),
	}
	c.l1Mask = uint32(len(c.l1) - 1)
	c.l2Mask = uint32(len(c.l2) - 1)
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.lineShift++
	}
	return c
}

// Access simulates one memory access and returns (readStall, writeStall)
// cycles caused by it. Both caches are write-allocate, so reads and writes
// probe identically; only the stall attribution differs. A miss installs
// the line, evicting the slot's previous line.
func (c *Cache) Access(addr uint32, write bool) (readStall, writeStall uint64) {
	// Drain the store buffer.
	c.pending -= c.cfg.DrainPerAccess
	if c.pending < 0 {
		c.pending = 0
	}

	penalty := 0
	line := addr>>c.lineShift + 1
	if t1 := &c.l1[line&c.l1Mask]; *t1 != line {
		*t1 = line
		c.L1Misses++
		if t2 := &c.l2[line&c.l2Mask]; *t2 == line {
			penalty = c.cfg.L1MissPenalty
		} else {
			*t2 = line
			c.L2Misses++
			penalty = c.cfg.L2MissPenalty
		}
	}

	if write {
		c.Writes++
		// The write's miss handling is buffered; the processor only stalls
		// if the buffer overflows.
		c.pending += penalty
		if c.pending > c.cfg.StoreBufferCap {
			over := uint64(c.pending - c.cfg.StoreBufferCap)
			c.pending = c.cfg.StoreBufferCap
			c.WriteStalls += over
			return 0, over
		}
		return 0, 0
	}
	c.Reads++
	c.ReadStalls += uint64(penalty)
	return uint64(penalty), 0
}
