package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/dblp"
	"repro/internal/native"
	"repro/internal/schema"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// document is one generated input: the tree the oracle evaluates and
// the serialised bytes the store under test is given.
type document struct {
	Name   string
	Schema *schema.Schema
	Tree   *xmltree.Document
	XML    []byte
}

func newDocument(name string, s *schema.Schema, tree *xmltree.Document) (*document, error) {
	var buf bytes.Buffer
	if err := tree.WriteXML(&buf); err != nil {
		return nil, fmt.Errorf("serialising %s: %w", name, err)
	}
	return &document{Name: name, Schema: s, Tree: tree, XML: buf.Bytes()}, nil
}

func genXMark(scale float64, seed int64) (*document, error) {
	tree, err := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newDocument("xmark", xmark.Schema(), tree)
}

func genDBLP(scale float64, seed int64) (*document, error) {
	tree, err := dblp.Generate(dblp.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return newDocument("dblp", dblp.Schema(), tree)
}

// docFingerprint is what expected.json pins of a generated document.
type docFingerprint struct {
	XMLBytes int `json:"xml_bytes"`
	Nodes    int `json:"nodes"`
	Paths    int `json:"distinct_paths"`
}

func (d *document) fingerprint() docFingerprint {
	return docFingerprint{XMLBytes: len(d.XML), Nodes: d.Tree.Len(), Paths: len(d.Tree.DistinctPaths())}
}

// maxElementID is the amount a store's node-id base advances when the
// document is loaded (shred.Load: ids are base + node id, and the next
// base is the largest element id assigned).
func (d *document) maxElementID() int64 {
	var max int64
	for _, n := range d.Tree.Nodes() {
		if n.Kind == xmltree.Element && n.ID > max {
			max = n.ID
		}
	}
	return max
}

// oracleNodes evaluates a query with the native evaluator and maps
// text nodes to their parent element, the relational convention; the
// result is in document order without duplicates.
func oracleNodes(ev *native.Evaluator, xp string) ([]*xmltree.Node, error) {
	items, err := ev.EvalString(xp)
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]bool, len(items))
	out := make([]*xmltree.Node, 0, len(items))
	for _, it := range items {
		n := it.Node
		if !it.IsAttr() && n.Kind == xmltree.Text {
			n = n.Parent
		}
		if !seen[n.ID] {
			seen[n.ID] = true
			out = append(out, n)
		}
	}
	return out, nil
}

func oracleIDs(ev *native.Evaluator, xp string) ([]int64, error) {
	nodes, err := oracleNodes(ev, xp)
	if err != nil {
		return nil, fmt.Errorf("oracle %q: %w", xp, err)
	}
	ids := make([]int64, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids, nil
}

// resultFingerprint is what expected.json pins of a query result.
type resultFingerprint struct {
	Nodes int    `json:"nodes"`
	FNV64 string `json:"fnv64"`
}

func fingerprintIDs(ids []int64) resultFingerprint {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		for i := range b {
			b[i] = byte(id >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return resultFingerprint{Nodes: len(ids), FNV64: fmt.Sprintf("%016x", h.Sum64())}
}

// adhocOp is one adhoc_cold query with the oracle's answer.
type adhocOp struct {
	Template int
	XPath    string
	Want     []int64
}

// adhocOps instantiates every template with every key value the
// document holds, answers each from one native evaluation of the
// template's General path, and shuffles the lot with the seed: cycled
// in this order, a query text recurs only after every other text, far
// beyond the engine's 256-entry plan cache.
func adhocOps(doc *document, ev *native.Evaluator, seed int64) ([]adhocOp, error) {
	var ops []adhocOp
	for ti, t := range adhocTemplates {
		keyOf := func(n *xmltree.Node) (string, bool) {
			for ; n != nil; n = n.Parent {
				if n.Kind != xmltree.Element || n.Name != t.Anchor {
					continue
				}
				if t.KeyChild == "" {
					return n.Attr(t.KeyAttr)
				}
				for _, c := range n.Children {
					if c.Kind == xmltree.Element && c.Name == t.KeyChild {
						return c.Attr(t.KeyAttr)
					}
				}
				return "", false
			}
			return "", false
		}
		var keys []string
		index := map[string]int{}
		for _, n := range doc.Tree.Nodes() {
			if n.Kind != xmltree.Element || n.Name != t.Anchor {
				continue
			}
			if k, ok := keyOf(n); ok {
				if _, dup := index[k]; !dup {
					index[k] = len(keys)
					keys = append(keys, k)
				}
			}
		}
		want := make([][]int64, len(keys))
		nodes, err := oracleNodes(ev, t.General)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", t.General, err)
		}
		for _, n := range nodes {
			k, ok := keyOf(n)
			if !ok {
				return nil, fmt.Errorf("template %s: result node %d has no %s key", t.Name, n.ID, t.Anchor)
			}
			want[index[k]] = append(want[index[k]], n.ID)
		}
		for i, k := range keys {
			ops = append(ops, adhocOp{Template: ti, XPath: fmt.Sprintf(t.Format, k), Want: want[i]})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}
