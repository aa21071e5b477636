package main

import (
	"fmt"
	"math/rand"

	mmdb "repro"
	"repro/internal/dataset"
)

// Image size of every generated flag. Small rasters keep set-up cheap; the
// query path never touches pixels of edited images, only their scripts.
const imgW, imgH = 48, 32

// queryColors are the named colors the flag palettes actually use, so range
// texts select a real share of the corpus instead of nothing.
var queryColors = []string{"red", "white", "blue", "green", "yellow", "black", "gold", "orange", "navy", "sky"}

// familyColors name the color families of multi-bin queries.
var familyColors = []string{"red", "blue", "green", "yellow", "white"}

// corpusSpec sizes a generated corpus.
type corpusSpec struct {
	Binaries int
	Edited   int
	// NonWidening is the share of edited scripts ending in a target Merge
	// (paper Table 2's "non-widening" column).
	NonWidening float64
	Probes      int
}

// paperCorpus is the 10k flag corpus with the paper's Table 2 shares:
// 23% binaries, 77% edited, 35% of the edited ones non-widening.
var paperCorpus = corpusSpec{Binaries: 2300, Edited: 7700, NonWidening: 0.35, Probes: 16}

type editedSpec struct {
	Name string
	Seq  *mmdb.Sequence
}

// corpus is one workload's generated data. Binaries are inserted first, so
// they take ids 1..len(Binaries) and edited scripts can name their base
// and Merge targets by id before anything is inserted.
type corpus struct {
	Binaries []dataset.NamedImage
	Edited   []editedSpec
	// Probes are k-NN probe rasters drawn from the same generator but held
	// out of the corpus.
	Probes []*mmdb.Image
}

// genCorpus builds a corpus from seed. Edited scripts are spread over the
// bases as evenly as the counts allow, and Merge targets are drawn from the
// whole binary set.
func genCorpus(spec corpusSpec, seed int64) *corpus {
	flags := dataset.Flags(spec.Binaries+spec.Probes, imgW, imgH, seed)
	c := &corpus{Binaries: flags[:spec.Binaries]}
	noise := rand.New(rand.NewSource(seed + 3))
	for _, p := range flags[spec.Binaries:] {
		c.Probes = append(c.Probes, speckle(noise, p.Img))
	}
	if spec.Binaries == 0 || spec.Edited == 0 {
		return c
	}
	per := (spec.Edited + spec.Binaries - 1) / spec.Binaries
	extra := spec.Edited - (per-1)*spec.Binaries // bases that get `per` scripts
	aug := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase: per, OpsPerImage: 5, NonWideningFrac: spec.NonWidening, Seed: seed + 1,
	})
	rng := rand.New(rand.NewSource(seed + 2))
	for b := 0; b < spec.Binaries; b++ {
		id := uint64(b + 1)
		scripts := aug.ScriptsFor(id, flags[b].Img, otherBases(rng, id, spec.Binaries))
		if b >= extra {
			scripts = scripts[:per-1]
		}
		for _, seq := range scripts {
			c.Edited = append(c.Edited, editedSpec{Name: fmt.Sprintf("edit-%05d", len(c.Edited)), Seq: seq})
		}
	}
	return c
}

// speckle returns a copy of img with a tenth of its pixels set to random
// palette colors. The flag generator draws from a few dozen distinct
// rasters, so an untouched flag is almost surely already in the corpus;
// a speckled one is not, and a probe is then truly held out.
func speckle(rng *rand.Rand, img *mmdb.Image) *mmdb.Image {
	out := img.Clone()
	for i := 0; i < out.W*out.H/10; i++ {
		out.Set(rng.Intn(out.W), rng.Intn(out.H), dataset.AllColors[rng.Intn(len(dataset.AllColors))])
	}
	return out
}

// otherBases picks up to four Merge-target candidates other than id.
func otherBases(rng *rand.Rand, id uint64, binaries int) []uint64 {
	var out []uint64
	for len(out) < 4 && binaries > 1 {
		o := uint64(rng.Intn(binaries) + 1)
		if o != id {
			out = append(out, o)
		}
	}
	return out
}

// rangeText renders one paper-phrased range query over color: "at least",
// "at most" or "between" by kind modulo 3, with its percentages drawn from
// the low (stratum 0) or high (stratum 1) half of the phrase's range.
func rangeText(rng *rand.Rand, color string, kind, stratum int) string {
	switch kind % 3 {
	case 0:
		return fmt.Sprintf("at least %d%% %s", 5+20*stratum+rng.Intn(20), color)
	case 1:
		return fmt.Sprintf("at most %d%% %s", 5+20*stratum+rng.Intn(20), color)
	default:
		lo := 15*stratum + rng.Intn(15)
		return fmt.Sprintf("between %d%% and %d%% %s", lo, lo+10+rng.Intn(25), color)
	}
}

// rangeTexts returns one text per color, phrasing and stratum, so every
// seed's pool covers the query space the same way and the seed only moves
// the percentages.
func rangeTexts(rng *rand.Rand) []string {
	var out []string
	for _, color := range queryColors {
		for kind := 0; kind < 3; kind++ {
			for stratum := 0; stratum < 2; stratum++ {
				out = append(out, rangeText(rng, color, kind, stratum))
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// compoundTexts returns two-term texts, "and" and "or" over every pair of
// neighbouring colors. The terms are "at least"/"at most" only: the grammar
// cannot nest a "between .. and .." inside a connective.
func compoundTexts(rng *rand.Rand) []string {
	var out []string
	for i, color := range queryColors {
		other := queryColors[(i+1)%len(queryColors)]
		out = append(out,
			rangeText(rng, color, 0, 0)+" and "+rangeText(rng, other, 1, 1),
			rangeText(rng, color, 0, 1)+" or "+rangeText(rng, other, 0, 1))
	}
	return out
}

// familyQuery is a multi-bin range over a named color family.
type familyQuery struct {
	Color    string
	Min, Max float64
}

// familyQueries returns three ranges (low, middle, high) per family.
func familyQueries(rng *rand.Rand) []familyQuery {
	var out []familyQuery
	for _, color := range familyColors {
		for band := 0; band < 3; band++ {
			lo := 0.1*float64(band) + 0.05*float64(rng.Intn(2))
			out = append(out, familyQuery{Color: color, Min: lo, Max: lo + 0.2 + 0.05*float64(rng.Intn(4))})
		}
	}
	return out
}

// insertStream yields the writes of an ingest client: new binary flags,
// and edited scripts over them, Merge targets drawn from the preloaded
// binaries. Flags come from their own generator seeds, so they never
// repeat corpus or probe rasters; they are made in chunks as needed.
type insertStream struct {
	seed    int64
	flags   []dataset.NamedImage
	aug     *dataset.Augmenter
	rng     *rand.Rand
	targets int // preloaded binaries 1..targets are Merge candidates
	made    int
}

const insertChunk = 256

func newInsertStream(seed int64, targets int) *insertStream {
	return &insertStream{
		seed: seed,
		aug: dataset.NewAugmenter(dataset.AugmentConfig{
			PerBase: 3, OpsPerImage: 5, NonWideningFrac: 0.35, Seed: seed + 102,
		}),
		rng:     rand.New(rand.NewSource(seed + 103)),
		targets: targets,
	}
}

// nextBinary returns the next flag to insert.
func (s *insertStream) nextBinary() dataset.NamedImage {
	if len(s.flags) == 0 {
		s.flags = dataset.Flags(insertChunk, imgW, imgH, s.seed+101+int64(s.made))
	}
	f := s.flags[0]
	s.flags = s.flags[1:]
	f.Name = fmt.Sprintf("ingest-flag-%06d", s.made)
	s.made++
	return f
}

// scriptsOver returns the three edited scripts for a just-inserted binary.
func (s *insertStream) scriptsOver(id uint64, img *mmdb.Image) []*mmdb.Sequence {
	return s.aug.ScriptsFor(id, img, otherBases(s.rng, 0, s.targets))
}
