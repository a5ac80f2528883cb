package serve

// Session profiles: what one request allocates, distilled from the six
// benchmark apps' per-site allocation counts (`regionstat -app X` prints
// them as regions_alloc_site_objects_total and _bytes_total). Each profile
// keeps the app's shape — object sizes, the ralloc/rstralloc/rarrayalloc
// split, and roughly the app's pointer-store density — scaled down to one
// request's worth of work, so a serving run exercises the same allocator
// paths as the batch harness: parse-heavy small-object churn for the
// compilers, string-dominated streams for the text tools, array-heavy
// numeric kernels for cfrac and grobner.

// allocKind distinguishes the three allocation entry points a site uses.
type allocKind uint8

const (
	allocPtr allocKind = iota // ralloc: cleared, scanned, may hold sameregion pointers
	allocStr                  // rstralloc: pointer-free, unscanned
	allocArr                  // rarrayalloc: cleared array, cleanup per element
)

// site is one allocation site of a profile: count objects of size bytes
// (count elements of size bytes for allocArr) per unit of session weight,
// allocated under a cleanup registered with the site's name — so a metered
// run's site counters attribute serving load to the same labels the batch
// apps use.
type site struct {
	name  string
	kind  allocKind
	size  int
	count int
	// cln indexes cleanupSites, and a shard's cleanup ids, for the site's
	// cleanup; string sites have none.
	cln int
}

// Profile is one session archetype: the allocation mix of the parse phase
// (into the request's parse region), of the work phase (into a second
// region that outlives the parse region — the non-lexical lifetime shape),
// and the number of sameregion pointer stores the work phase performs.
type Profile struct {
	Name   string
	Weight int // relative draw weight in the session mix
	parse  []site
	work   []site
	stores int
	// recycle makes each string site free its previous block before
	// allocating the next (see allocPhase) — the buffer-recycling shape the
	// pooled string allocator exists for. Recycling profiles force content
	// checksums: with the pool on, reused addresses legitimately differ
	// from the pool-off stream, so the determinism gate must not sum
	// addresses.
	recycle bool
}

// Profiles returns the six session archetypes in the paper's app order.
// The mix is weighted toward the compilers (mudlle, lcc): a server-shaped
// workload is dominated by parse-allocate-discard requests, which is
// exactly the pattern the paper's region argument is strongest on. The
// slice and the profiles are package data, shared by every run: callers
// must not modify them.
func Profiles() []*Profile { return defaultMix[:] }

// profileByName finds a profile by Name, nil if unknown.
func profileByName(name string) *Profile {
	for _, p := range profiles {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// profiles is every profile the simulator knows, built once per process
// and never written after initialisation: the default mix, then the
// special-purpose archetypes Config.Profile selects, bulk and strheavy.
var profiles = append(defaultMix[:len(defaultMix):len(defaultMix)], bulkProfile, strHeavyProfile)

// defaultMix is the session mix Profiles returns.
var defaultMix = [...]*Profile{
	{
		Name: "cfrac", Weight: 2,
		parse: []site{
			{name: "cfrac/itom", kind: allocPtr, size: 16, count: 18},
			{name: "cfrac/limb", kind: allocArr, size: 4, count: 40},
		},
		work: []site{
			{name: "cfrac/mult", kind: allocPtr, size: 24, count: 22},
			{name: "cfrac/rem", kind: allocArr, size: 4, count: 24},
		},
		stores: 40,
	},
	{
		Name: "grobner", Weight: 1,
		parse: []site{
			{name: "grobner/term", kind: allocPtr, size: 24, count: 26},
			{name: "grobner/coef", kind: allocArr, size: 8, count: 16},
		},
		work: []site{
			{name: "grobner/pair", kind: allocPtr, size: 32, count: 14},
			{name: "grobner/reduce", kind: allocStr, size: 20, count: 10},
		},
		stores: 30,
	},
	{
		Name: "mudlle", Weight: 3,
		parse: []site{
			{name: "mudlle/node", kind: allocPtr, size: 20, count: 55},
			{name: "mudlle/string", kind: allocStr, size: 28, count: 22},
		},
		work: []site{
			{name: "mudlle/code", kind: allocArr, size: 4, count: 90},
			{name: "mudlle/value", kind: allocPtr, size: 12, count: 26},
		},
		stores: 100,
	},
	{
		Name: "lcc", Weight: 3,
		parse: []site{
			{name: "lcc/node", kind: allocPtr, size: 28, count: 45},
			{name: "lcc/ident", kind: allocStr, size: 16, count: 30},
		},
		work: []site{
			{name: "lcc/quad", kind: allocArr, size: 16, count: 26},
			{name: "lcc/sym", kind: allocPtr, size: 24, count: 18},
		},
		stores: 80,
	},
	{
		Name: "tile", Weight: 2,
		parse: []site{
			{name: "tile/token", kind: allocStr, size: 12, count: 65},
			{name: "tile/count", kind: allocPtr, size: 16, count: 16},
		},
		work: []site{
			{name: "tile/block", kind: allocArr, size: 8, count: 32},
			{name: "tile/score", kind: allocPtr, size: 16, count: 10},
		},
		stores: 20,
	},
	{
		Name: "moss", Weight: 1,
		parse: []site{
			{name: "moss/line", kind: allocStr, size: 36, count: 35},
			{name: "moss/passage", kind: allocPtr, size: 20, count: 12},
		},
		work: []site{
			{name: "moss/fp", kind: allocArr, size: 8, count: 50},
			{name: "moss/match", kind: allocPtr, size: 16, count: 24},
		},
		stores: 35,
	},
}

// bulkProfile is the large-region archetype: a request that streams big
// pointer-free multi-page blobs into its regions — dozens of pages per
// session — with almost no pointer work. An 8-page rstralloc costs a
// handful of cycles to allocate (bump + span acquire, nothing cleared),
// but synchronous deletion charges every one of those pages inside the
// session's service window, so reclamation is the dominant cost here —
// the worst honest case for synchronous deleteregion and the profile
// where deferred reclamation's tail-latency claim is testable. The
// deferred-delete A/B benchmark serves it under load and compares p999.
// Not part of the default mix (Profiles()); select it with
// Config.Profile = "bulk".
var bulkProfile = &Profile{
	Name: "bulk", Weight: 1,
	parse: []site{
		{name: "bulk/header", kind: allocPtr, size: 24, count: 2},
		{name: "bulk/blob", kind: allocStr, size: 32768, count: 2},
	},
	work: []site{
		{name: "bulk/body", kind: allocStr, size: 32768, count: 3},
		{name: "bulk/index", kind: allocPtr, size: 24, count: 2},
	},
	stores: 2,
}

// strHeavyProfile is the buffer-recycling archetype: a request that churns
// through pointer-free string buffers, freeing each one as soon as the next
// replaces it (Profile.recycle) — a scanner's line buffer, a tokenizer's
// scratch. Sizes deliberately straddle the pooled allocator's power-of-two
// classes (63/64/65 around the 64 class boundary) and include one
// above-ceiling "Big" site, so one run exercises exact-fit reuse, slack
// reuse, and the bump fall-through. Not part of the default mix; select it
// with Config.Profile = "strheavy". The string-pool A/B benchmark serves it
// pooled and unpooled and compares cycles, reuse ratio, and OS traffic.
var strHeavyProfile = &Profile{
	Name: "strheavy", Weight: 1, recycle: true,
	parse: []site{
		{name: "strheavy/line", kind: allocStr, size: 63, count: 30},  // one under the 64 class
		{name: "strheavy/token", kind: allocStr, size: 64, count: 40}, // exactly a class size
		{name: "strheavy/frag", kind: allocStr, size: 65, count: 20},  // one over: floors to 64
		{name: "strheavy/hdr", kind: allocPtr, size: 24, count: 6},
	},
	work: []site{
		{name: "strheavy/buf", kind: allocStr, size: 512, count: 12},
		{name: "strheavy/blob", kind: allocStr, size: 4096, count: 2}, // above the ceiling: Big
		{name: "strheavy/sym", kind: allocPtr, size: 16, count: 4},
	},
	stores: 10,
}

// cleanupSite is one cleanup every serving runtime registers: a site's
// name, for the census label, and its object size.
type cleanupSite struct {
	name string
	size int
}

// cleanupSites is every cleanup a serving runtime registers, in
// registration order, built once per process: the non-string sites of
// every profile in profiles order, parse sites before work sites, each
// name at its first occurrence only, then the tenant-state site. Building
// it sets each site's cln to its index.
var cleanupSites = func() []cleanupSite {
	var cs []cleanupSite
	index := map[string]int{}
	for _, p := range profiles {
		for _, phase := range [][]site{p.parse, p.work} {
			for i := range phase {
				sc := &phase[i]
				if sc.kind == allocStr {
					continue
				}
				k, ok := index[sc.name]
				if !ok {
					k = len(cs)
					index[sc.name] = k
					cs = append(cs, cleanupSite{sc.name, sc.size})
				}
				sc.cln = k
			}
		}
	}
	return append(cs, cleanupSite{tenantSite, tenantNodeSize})
}()

// tenantCln is the tenant-state site's index in cleanupSites.
var tenantCln = len(cleanupSites) - 1
