package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/pxml"
	"repro/internal/xmlcodec"
)

// Input sizes. They are constants of the benchmark: changing one changes
// every number it reports. None comes from traffic data; README.md gives
// the basis of each.
const (
	// fillerMovies is the size of the certain filler catalog the
	// document starts from.
	fillerMovies = 200
	// confusingB is the size of the §V confusing-franchise source B.
	confusingB = 24
	// tailSources is the number of stream sources journaled after the
	// compacted snapshot, so start-up replays a real write-ahead tail.
	tailSources = 24
	// hotQueries is the read_hot query-set size (well under the
	// 512-entry result cache).
	hotQueries = 48
	// hotZipfS is the Zipf exponent of the read_hot mix (a choice).
	hotZipfS = 1.1
	// coldQueries is the read_cold query-set size (four times the
	// 512-entry result cache).
	coldQueries = 2048
	// reingested is the number of filler movies identical records are
	// drawn from: feeds re-send a popular subset (a choice).
	reingested = 32
	// Records per ingest source, by kind (a choice).
	recIdentical = 4
	recVariant   = 1
	recNew       = 1
)

var titleAdjectives = []string{
	"Silent", "Golden", "Broken", "Crimson", "Hidden", "Distant", "Burning", "Frozen", "Lonely", "Electric",
	"Velvet", "Scarlet", "Midnight", "Wandering", "Forgotten", "Luminous", "Restless", "Hollow", "Painted", "Savage",
	"Quiet", "Bitter", "Northern", "Endless", "Fragile", "Iron", "Paper", "Glass", "Wild", "Sleeping",
}

var titleNouns = []string{
	"River", "Harvest", "Empire", "Garden", "Signal", "Horizon", "Mirror", "Station", "Voyage", "Canyon",
	"Orchard", "Tides", "Lantern", "Meridian", "Summit", "Harbor", "Quarry", "Monsoon", "Citadel", "Prairie",
	"Compass", "Thunder", "Cathedral", "Glacier", "Ember", "Labyrinth", "Falcon", "Bridge", "Kingdom", "Lighthouse",
}

var titlePlaces = []string{
	"of Avalon", "in Kyoto", "at Dawn", "over Lisbon", "under Nairobi", "beyond Oslo", "near Quito", "from Tbilisi",
	"across Yukon", "below Zagreb", "past Marrakesh", "toward Helsinki", "after Havana", "before Jakarta", "off Valparaiso",
	"around Reykjavik",
}

var firstNames = []string{
	"Ava", "Marco", "Sofia", "Henrik", "Carla", "Tomas", "Ingrid", "Pedro", "Yuki", "Omar",
	"Lena", "Rafael", "Mira", "Jonas", "Elif", "Dmitri", "Nadia", "Kwame", "Priya", "Lucas",
}

var lastNames = []string{
	"Lindqvist", "Benedetti", "Almeida", "Olsen", "Moreno", "Novak", "Bauer", "Casals", "Tanaka", "Haddad",
	"Okafor", "Petrova", "Kowalski", "Fischer", "Dubois", "Santos", "Nakamura", "Ivanova", "Murphy", "Costa",
}

var genrePool = []string{"Drama", "Comedy", "Romance", "Documentary", "Crime", "Western", "Thriller", "Horror", "Action", "Mystery"}

// movieGen hands out distinct filler movies from one seeded stream.
type movieGen struct {
	rng    *rand.Rand
	titles map[string]bool
	n      int
}

func newMovieGen(rng *rand.Rand) *movieGen {
	return &movieGen{rng: rng, titles: map[string]bool{}}
}

func (g *movieGen) next() datagen.Movie {
	var title string
	for {
		title = titleAdjectives[g.rng.Intn(len(titleAdjectives))] + " " +
			titleNouns[g.rng.Intn(len(titleNouns))] + " " +
			titlePlaces[g.rng.Intn(len(titlePlaces))]
		if g.rng.Intn(4) == 0 {
			// Some titles carry punctuation, which the MPEG-7 convention
			// drops: their variants differ in title text too.
			title = strings.Replace(title, " ", ": ", 1)
		}
		if !g.titles[title] {
			break
		}
	}
	g.titles[title] = true
	g.n++
	ng := 1 + g.rng.Intn(2)
	var genres []string
	start := g.rng.Intn(len(genrePool))
	for k := 0; k < ng; k++ {
		genres = append(genres, genrePool[(start+k*3)%len(genrePool)])
	}
	return datagen.Movie{
		ID:        fmt.Sprintf("fill-%d", g.n),
		Title:     title,
		Year:      1900 + g.rng.Intn(200),
		Genres:    genres,
		Directors: []string{firstNames[g.rng.Intn(len(firstNames))] + " " + lastNames[g.rng.Intn(len(lastNames))]},
	}
}

// Record kinds of an ingest source.
const (
	kindIdentical = iota
	kindVariant
	kindNew
	numKinds
)

// Source is one generated ingest body and its record counts by kind.
type Source struct {
	XML   string
	Kinds [numKinds]int
}

// Stream generates the seeded ingest stream. Each source mixes records
// identical to ones already in the document (the memo and delta-splice
// path), naming-convention variants of certain records not varied before
// (undecided pairs, one new choice point each) and new records.
type Stream struct {
	rng *rand.Rand
	gen *movieGen
	// hot are the movies identical records re-send; certain the other
	// movies whose document rendering is still certain (IMDB convention),
	// which variants consume.
	hot, certain []datagen.Movie
}

func (s *Stream) Next() Source {
	var movies []datagen.Movie
	var convs []datagen.Convention
	var src Source
	// Distinct picks: two records of one source denoting the same movie
	// would both must-match it, which the oracle rejects.
	for _, i := range s.rng.Perm(len(s.hot))[:recIdentical] {
		movies, convs = append(movies, s.hot[i]), append(convs, datagen.ConvIMDB)
		src.Kinds[kindIdentical]++
	}
	for k := 0; k < recVariant; k++ {
		i := s.rng.Intn(len(s.certain))
		movies, convs = append(movies, s.certain[i]), append(convs, datagen.ConvMPEG7)
		src.Kinds[kindVariant]++
		// A varied movie is no longer certain in the document.
		s.certain[i] = s.certain[len(s.certain)-1]
		s.certain = s.certain[:len(s.certain)-1]
	}
	var fresh []datagen.Movie
	for k := 0; k < recNew; k++ {
		m := s.gen.next()
		fresh = append(fresh, m)
		movies, convs = append(movies, m), append(convs, datagen.ConvIMDB)
		src.Kinds[kindNew]++
	}
	elems := make([]*pxml.Node, len(movies))
	perm := s.rng.Perm(len(movies))
	for i, j := range perm {
		elems[i] = datagen.MovieElem(movies[j], convs[j])
	}
	tree := pxml.CertainTree(pxml.NewElem("catalog", "", pxml.Certain(elems...)))
	xml, err := xmlcodec.EncodeString(tree, xmlcodec.EncodeOptions{})
	if err != nil {
		panic(err) // a certain generated tree always encodes
	}
	src.XML = xml
	s.certain = append(s.certain, fresh...)
	return src
}

// Inputs are everything one seed generates.
type Inputs struct {
	Seed int64
	// Filler is the certain filler catalog the document starts from;
	// ConfA and ConfB the §V confusing-franchise sources integrated into
	// it before the snapshot.
	Filler, ConfA, ConfB *pxml.Tree
	// Tail are the stream sources journaled after the snapshot.
	Tail []Source
	// Stream continues after Tail.
	Stream *Stream
	Hot    []string
	Cold   []string
	// values the query sets draw from
	titles, directors []string
	years             []int
}

// GenerateInputs builds the seeded inputs. The same seed always gives
// the same inputs.
func GenerateInputs(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	gen := newMovieGen(rng)
	filler := make([]datagen.Movie, fillerMovies)
	for i := range filler {
		filler[i] = gen.next()
	}
	conf := datagen.Confusing(confusingB, seed)
	in := &Inputs{
		Seed:   seed,
		Filler: datagen.CatalogTree(filler, datagen.ConvIMDB),
		ConfA:  conf.A.Tree,
		ConfB:  conf.B.Tree,
		Stream: &Stream{
			rng:     rng,
			gen:     gen,
			hot:     filler[:reingested],
			certain: append([]datagen.Movie(nil), filler[reingested:]...),
		},
	}
	for i := 0; i < tailSources; i++ {
		in.Tail = append(in.Tail, in.Stream.Next())
	}
	seenDir := map[string]bool{}
	for _, m := range append(append(append([]datagen.Movie(nil), filler...), conf.A.Movies...), conf.B.Movies...) {
		in.titles = append(in.titles, m.Title)
		in.years = append(in.years, m.Year)
		for _, d := range m.Directors {
			d = datagen.FormatDirector(d, datagen.ConvIMDB)
			if !seenDir[d] {
				seenDir[d] = true
				in.directors = append(in.directors, d)
			}
		}
	}
	in.Hot = in.hotSet(rng)
	in.Cold = querySet(rng, in.queryUniverse(), coldQueries)
	return in
}

// queryUniverse lists every query the sets draw from, each once: the
// non-selective ones that touch every movie, genre predicates, and
// selective title, year and director predicates over values the
// document holds.
func (in *Inputs) queryUniverse() []string {
	seen := map[string]bool{}
	var out []string
	add := func(format string, args ...any) {
		q := fmt.Sprintf(format, args...)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for _, f := range []string{"title", "year", "director", "genre"} {
		add("//movie/%s", f)
	}
	for _, g := range genrePool {
		add("//movie[genre=%q]/title", g)
		add("//movie[genre=%q]/year", g)
	}
	for _, t := range in.titles {
		add("//movie[title=%q]/year", t)
		add("//movie[title=%q]/director", t)
		add("//movie[title=%q]/genre", t)
		w := strings.TrimSuffix(strings.Fields(t)[0], ":")
		add("//movie[contains(title,%q)]/year", w)
	}
	for _, y := range in.years {
		add(`//movie[year="%d"]/title`, y)
		add(`//movie[year="%d"]/director`, y)
		add(`//movie[year="%d"]/genre`, y)
		for _, g := range genrePool {
			add(`//movie[year="%d" and genre=%q]/title`, y, g)
		}
	}
	for _, d := range in.directors {
		add("//movie[director=%q]/title", d)
		add("//movie[director=%q]/year", d)
		add("//movie[director=%q]/genre", d)
	}
	return out
}

// hotSet builds the read_hot set. Each Zipf rank has a fixed query
// shape and only the values vary with the seed, so the mix of cheap and
// expensive answers is the same for every seed. The non-selective
// queries sit at fixed middle ranks.
func (in *Inputs) hotSet(rng *rand.Rand) []string {
	title := func() string { return in.titles[rng.Intn(len(in.titles))] }
	year := func() int { return in.years[rng.Intn(len(in.years))] }
	director := func() string { return in.directors[rng.Intn(len(in.directors))] }
	genre := func() string { return genrePool[rng.Intn(len(genrePool))] }
	shapes := []func() string{
		func() string { return fmt.Sprintf("//movie[title=%q]/year", title()) },
		func() string { return fmt.Sprintf(`//movie[year="%d"]/title`, year()) },
		func() string { return fmt.Sprintf("//movie[director=%q]/title", director()) },
		func() string { return fmt.Sprintf("//movie[title=%q]/director", title()) },
		func() string { return fmt.Sprintf("//movie[genre=%q]/year", genre()) },
		func() string { return fmt.Sprintf("//movie[title=%q]/genre", title()) },
		func() string { return fmt.Sprintf("//movie[director=%q]/year", director()) },
		func() string {
			return fmt.Sprintf("//movie[contains(title,%q)]/year", strings.TrimSuffix(strings.Fields(title())[0], ":"))
		},
		func() string { return fmt.Sprintf(`//movie[year="%d" and genre=%q]/title`, year(), genre()) },
		func() string { return fmt.Sprintf(`//movie[year="%d"]/director`, year()) },
		func() string { return fmt.Sprintf("//movie[director=%q]/genre", director()) },
	}
	wide := map[int]string{7: "//movie/title", 19: "//movie/year", 31: "//movie/director", 43: "//movie/genre"}
	seen := map[string]bool{}
	out := make([]string, 0, hotQueries)
	for rank := 0; rank < hotQueries; rank++ {
		q, ok := wide[rank]
		for !ok || seen[q] {
			q, ok = shapes[rank%len(shapes)](), true
		}
		seen[q] = true
		out = append(out, q)
	}
	return out
}

// querySet draws n distinct queries from the universe.
func querySet(rng *rand.Rand, universe []string, n int) []string {
	if n > len(universe) {
		panic(fmt.Sprintf("perfbench: query universe holds %d queries, need %d", len(universe), n))
	}
	perm := rng.Perm(len(universe))[:n]
	out := make([]string, n)
	for i, j := range perm {
		out[i] = universe[j]
	}
	return out
}

// zipf draws indexes in [0,n) with P(i) proportional to 1/(i+1)^s.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
