package plancheck

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
)

// CheckMatrix certificate-checks a seeded randomized query matrix: n
// generated XPath queries per workload, each translated under both
// the schema-aware and the Edge translator (so the default n of 2500
// yields ~10k checked translations across the two corpus workloads).
// Queries a translator rejects are skipped and counted; every plan
// that compiles must carry a valid certificate.
func CheckMatrix(n int, seed int64) ([]Finding, Stats, error) {
	ws, err := corpusWorkloads()
	if err != nil {
		return nil, Stats{}, err
	}
	var findings []Finding
	var stats Stats
	om := &omissionLog{}
	for _, w := range ws {
		tfs := translators(w, om)
		gen := newQueryGen(w, rand.New(rand.NewSource(seed)))
		for i := 0; i < n; i++ {
			q := gen.next()
			stats.Queries++
			for _, tf := range tfs {
				label := fmt.Sprintf("%s/matrix[%d]/%s %s", w.Name, i, tf.name, q)
				findings = append(findings, checkOne(label, tf, q, om, &stats)...)
			}
		}
	}
	if stats.Checked == 0 {
		return findings, stats, fmt.Errorf("matrix checked no plans — generator or translators broken")
	}
	return findings, stats, nil
}

// queryGen produces random XPath queries biased toward the shapes the
// translators support: absolute paths over the workload's element
// names with a mix of axes, wildcards, predicates and terminals.
type queryGen struct {
	r     *rand.Rand
	names []string
	attrs []string
}

func newQueryGen(w *bench.Workload, r *rand.Rand) *queryGen {
	g := &queryGen{r: r}
	seen := map[string]bool{}
	for _, n := range w.Schema.Nodes() {
		g.names = append(g.names, n.Name)
		for _, a := range n.Attrs {
			if !seen[a] {
				seen[a] = true
				g.attrs = append(g.attrs, a)
			}
		}
	}
	if len(g.attrs) == 0 {
		g.attrs = []string{"id"}
	}
	return g
}

func (g *queryGen) name() string {
	if g.r.Intn(8) == 0 {
		return "*"
	}
	return g.names[g.r.Intn(len(g.names))]
}

func (g *queryGen) attr() string { return g.attrs[g.r.Intn(len(g.attrs))] }

// axes beyond the child/descendant abbreviations, applied to a
// fraction of non-leading steps.
var matrixAxes = []string{
	"parent::", "ancestor::", "ancestor-or-self::",
	"descendant-or-self::", "following-sibling::",
	"preceding-sibling::", "following::", "preceding::",
}

func (g *queryGen) predicate() string {
	switch g.r.Intn(6) {
	case 0:
		return "[@" + g.attr() + "]"
	case 1:
		return "[@" + g.attr() + "='v" + fmt.Sprint(g.r.Intn(3)) + "']"
	case 2:
		return "[" + g.name() + "]"
	case 3:
		return "[.//" + g.name() + "]"
	case 4:
		return "[not(" + g.name() + ")]"
	default:
		return "[" + g.name() + " and " + g.name() + "]"
	}
}

func (g *queryGen) next() string {
	q := ""
	steps := 1 + g.r.Intn(4)
	for i := 0; i < steps; i++ {
		if g.r.Intn(3) == 0 {
			q += "//"
		} else {
			q += "/"
		}
		step := g.name()
		if i > 0 && g.r.Intn(4) == 0 {
			step = matrixAxes[g.r.Intn(len(matrixAxes))] + step
		}
		if g.r.Intn(4) == 0 {
			step += g.predicate()
		}
		q += step
	}
	switch g.r.Intn(8) {
	case 0:
		q += "/@" + g.attr()
	case 1:
		q += "/text()"
	}
	return q
}
