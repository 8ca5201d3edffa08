package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/xrel"
)

// store is a document store under test: XML in, durable; XPath in,
// node set out. Every workload talks to the system through it.
type store interface {
	LoadXML(xml []byte) error
	Query(xp string) ([]xrel.Node, error)
	Checkpoint() error
	Close() error
}

// ppfStore is the schema-aware mapping through the public API.
type ppfStore struct{ s *xrel.Store }

func (p ppfStore) LoadXML(xml []byte) error {
	_, err := p.s.LoadXML(bytes.NewReader(xml))
	return err
}

func (p ppfStore) Query(xp string) ([]xrel.Node, error) {
	res, err := p.s.Query(xp)
	if err != nil {
		return nil, err
	}
	return res.Nodes, nil
}

func (p ppfStore) Checkpoint() error { return p.s.Checkpoint() }
func (p ppfStore) Close() error      { return p.s.Close() }

// translator is the part of core.Translator and core.EdgeTranslator
// the harness calls.
type translator interface {
	Translate(query string) (*core.Translation, error)
	TranslateExpr(e xpath.Expr) (*core.Translation, error)
}

// layerStore is a store assembled from the layers xrel.Store hides:
// the engine database, a shredder and a translator. The schema
// oblivious mapping has no public API, so fig3_edge runs on one; the
// traced runs use one per mapping to put a span around each layer.
type layerStore struct {
	db   *engine.DB
	tr   translator
	load func(*xmltree.Document) (int64, error)
}

const (
	mappingPPF  = "ppf"
	mappingEdge = "edge"
)

// openLayers opens (or recovers) a layerStore; dir "" means in memory.
func openLayers(mapping, dir string, s *schema.Schema) (*layerStore, error) {
	db := engine.NewDB()
	if dir != "" {
		var err error
		if db, err = engine.Open(dir); err != nil {
			return nil, err
		}
	}
	ls, err := attachLayers(mapping, db, s)
	if err != nil {
		_ = db.Close() // the attach error is the one to report
		return nil, err
	}
	return ls, nil
}

// attachLayers builds the shredder and translator over an open
// database, creating the relational schema or re-attaching to it.
func attachLayers(mapping string, db *engine.DB, s *schema.Schema) (*layerStore, error) {
	if mapping == mappingEdge {
		st, err := shred.NewEdgeDB(db)
		if err != nil {
			return nil, err
		}
		return &layerStore{db: db, tr: core.NewEdge(nil), load: st.Load}, nil
	}
	st, err := shred.NewSchemaAwareDB(db, s)
	if err != nil {
		return nil, err
	}
	return &layerStore{db: db, tr: core.New(s, nil), load: st.Load}, nil
}

func (l *layerStore) LoadXML(xml []byte) error {
	doc, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		return err
	}
	_, err = l.load(doc)
	return err
}

// Query does what xrel.Store.QueryContext does: translate, run on the
// serial engine under a nil context, materialise id + Dewey string.
func (l *layerStore) Query(xp string) ([]xrel.Node, error) {
	tr, err := l.tr.Translate(xp)
	if err != nil {
		return nil, err
	}
	res, err := l.db.RunWithOptionsContext(nil, tr.Stmt, engine.ExecOptions{})
	if err != nil {
		return nil, fmt.Errorf("executing %q: %w", tr.SQL, err)
	}
	return materialise(res), nil
}

func materialise(res *engine.Result) []xrel.Node {
	var out []xrel.Node
	for _, row := range res.Rows {
		n := xrel.Node{ID: row[0].I}
		if row[1].Kind == engine.KBytes {
			n.Dewey = dewey.Pos(row[1].B).String()
		}
		out = append(out, n)
	}
	return out
}

func (l *layerStore) Checkpoint() error { return l.db.Checkpoint() }
func (l *layerStore) Close() error      { return l.db.Close() }

// openStore opens (or recovers) the durable store of a mapping.
func openStore(mapping, dir string, s *schema.Schema) (store, error) {
	if mapping == mappingEdge {
		return openLayers(mappingEdge, dir, s)
	}
	st, err := xrel.OpenPersistent(dir, s)
	if err != nil {
		return nil, err
	}
	return ppfStore{st}, nil
}

// walFile is the engine's log inside a store directory; its size is
// the number of WAL bytes appended since the last checkpoint.
const walFile = "wal.log"

// checkpointFile is the engine's checkpoint inside a store directory.
const checkpointFile = "checkpoint"

func fileSize(dir, name string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
