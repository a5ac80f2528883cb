package serve

// Session profiles: what one request allocates, distilled from the six
// benchmark apps' per-site allocation censuses (run `regionstat -app X
// -sample 64` to regenerate the underlying data). Each profile keeps the
// app's shape — object sizes, the ralloc/rstralloc/rarrayalloc split, and
// roughly the app's pointer-store density — scaled down to one request's
// worth of work, so a serving run exercises the same allocator paths as the
// batch harness: parse-heavy small-object churn for the compilers,
// string-dominated streams for the text tools, array-heavy numeric kernels
// for cfrac and grobner.

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
// run's sampled site census attributes serving load to the same labels the
// batch apps use.
type site struct {
	name  string
	kind  allocKind
	size  int
	count int
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
// exactly the pattern the paper's region argument is strongest on.
func Profiles() []*Profile {
	return []*Profile{
		{
			Name: "cfrac", Weight: 2,
			parse: []site{
				{"cfrac/itom", allocPtr, 16, 18},
				{"cfrac/limb", allocArr, 4, 40},
			},
			work: []site{
				{"cfrac/mult", allocPtr, 24, 22},
				{"cfrac/rem", allocArr, 4, 24},
			},
			stores: 40,
		},
		{
			Name: "grobner", Weight: 1,
			parse: []site{
				{"grobner/term", allocPtr, 24, 26},
				{"grobner/coef", allocArr, 8, 16},
			},
			work: []site{
				{"grobner/pair", allocPtr, 32, 14},
				{"grobner/reduce", allocStr, 20, 10},
			},
			stores: 30,
		},
		{
			Name: "mudlle", Weight: 3,
			parse: []site{
				{"mudlle/node", allocPtr, 20, 55},
				{"mudlle/string", allocStr, 28, 22},
			},
			work: []site{
				{"mudlle/code", allocArr, 4, 90},
				{"mudlle/value", allocPtr, 12, 26},
			},
			stores: 100,
		},
		{
			Name: "lcc", Weight: 3,
			parse: []site{
				{"lcc/node", allocPtr, 28, 45},
				{"lcc/ident", allocStr, 16, 30},
			},
			work: []site{
				{"lcc/quad", allocArr, 16, 26},
				{"lcc/sym", allocPtr, 24, 18},
			},
			stores: 80,
		},
		{
			Name: "tile", Weight: 2,
			parse: []site{
				{"tile/token", allocStr, 12, 65},
				{"tile/count", allocPtr, 16, 16},
			},
			work: []site{
				{"tile/block", allocArr, 8, 32},
				{"tile/score", allocPtr, 16, 10},
			},
			stores: 20,
		},
		{
			Name: "moss", Weight: 1,
			parse: []site{
				{"moss/line", allocStr, 36, 35},
				{"moss/passage", allocPtr, 20, 12},
			},
			work: []site{
				{"moss/fp", allocArr, 8, 50},
				{"moss/match", allocPtr, 16, 24},
			},
			stores: 35,
		},
	}
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
func bulkProfile() *Profile {
	return &Profile{
		Name: "bulk", Weight: 1,
		parse: []site{
			{"bulk/header", allocPtr, 24, 2},
			{"bulk/blob", allocStr, 32768, 2},
		},
		work: []site{
			{"bulk/body", allocStr, 32768, 3},
			{"bulk/index", allocPtr, 24, 2},
		},
		stores: 2,
	}
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
func strHeavyProfile() *Profile {
	return &Profile{
		Name: "strheavy", Weight: 1, recycle: true,
		parse: []site{
			{"strheavy/line", allocStr, 63, 30},  // one under the 64 class
			{"strheavy/token", allocStr, 64, 40}, // exactly a class size
			{"strheavy/frag", allocStr, 65, 20},  // one over: floors to 64
			{"strheavy/hdr", allocPtr, 24, 6},
		},
		work: []site{
			{"strheavy/buf", allocStr, 512, 12},
			{"strheavy/blob", allocStr, 4096, 2}, // above the ceiling: Big
			{"strheavy/sym", allocPtr, 16, 4},
		},
		stores: 10,
	}
}

// allProfiles returns every profile the simulator knows: the default
// six-app mix plus the special-purpose archetypes selectable by
// Config.Profile.
func allProfiles() []*Profile {
	return append(Profiles(), bulkProfile(), strHeavyProfile())
}

// profileByName finds a profile by Name, nil if unknown.
func profileByName(name string) *Profile {
	for _, p := range allProfiles() {
		if p.Name == name {
			return p
		}
	}
	return nil
}
