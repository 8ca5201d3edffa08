// Package shred loads XML documents into relational storage under the
// three mappings the paper evaluates:
//
//   - the schema-aware mapping of Section 3 (one relation per element
//     definition, descriptor columns id/par/dewey_pos/path_id, text
//     and attributes inlined as columns, a shared 'paths' relation,
//     and the Section 3.1 indexes),
//   - a schema-oblivious Edge-like mapping (one central element
//     relation plus a separate attribute relation, per the paper's
//     footnote 3),
//   - the XPath Accelerator mapping (pre/post region encoding), used
//     by the baseline of Section 5.2.
package shred

import (
	"fmt"
	"strings"

	"repro/internal/dewey"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Descriptor column names shared by the mappings.
const (
	ColID    = "id"
	ColPar   = "par"
	ColDewey = "dewey_pos"
	ColPath  = "path_id"
	ColDoc   = "doc_id"
	ColText  = "text"
)

// PathsTable is the name of the shared root-to-node path relation.
const PathsTable = "paths"

// reserved are column names an attribute may not claim directly.
var reserved = map[string]bool{
	ColID: true, ColPar: true, ColDewey: true, ColPath: true,
	ColDoc: true, ColText: true,
}

// RelName maps an element name to its relation name in the
// schema-aware mapping. Element names that collide with the reserved
// 'paths' relation or contain non-identifier characters are prefixed
// and sanitized.
func RelName(element string) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, element)
	if name == PathsTable || name == "" || (name[0] >= '0' && name[0] <= '9') {
		name = "el_" + name
	}
	return name
}

// AttrCol maps an attribute name to its column name.
func AttrCol(attr string) string {
	name := RelName(attr)
	if reserved[name] {
		return "a_" + name
	}
	return name
}

// pathRegistry assigns stable ids to distinct root-to-node paths,
// filling the paths relation gradually during insertion as the paper
// describes in Section 3.1. The zero value serves a mapping without a
// paths relation (the accelerator).
type pathRegistry struct {
	table *engine.Table
	ids   map[string]int64
	// fresh accumulates paths first seen during the current load, so a
	// failed batch commit can forget them (their rows never landed).
	fresh []string
}

// rollback removes the paths registered since the last commit.
func (r *pathRegistry) rollback() {
	for _, p := range r.fresh {
		delete(r.ids, p)
	}
	r.fresh = nil
}

// indexDef is one index of a relation, named <relation><suffix>.
type indexDef struct {
	suffix string
	cols   []string
}

// descriptorIndexes are the Section 3.1 indexes over the descriptor
// columns: primary key, parent foreign key, composite (dewey_pos,
// path_id).
var descriptorIndexes = []indexDef{
	{"_pk", []string{ColID}},
	{"_par", []string{ColPar}},
	{"_dp", []string{ColDewey, ColPath}},
}

// createRelation creates a table and its indexes.
func createRelation(db *engine.DB, name string, cols []engine.Column, indexes ...indexDef) (*engine.Table, error) {
	t, err := db.CreateTable(name, cols...)
	if err != nil {
		return nil, err
	}
	for _, ix := range indexes {
		if _, err := t.CreateIndex(name+ix.suffix, ix.cols...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// createAttr creates the separate attribute relation of the Edge and
// accelerator mappings; owner is the element's id or pre rank.
func createAttr(db *engine.DB) (*engine.Table, error) {
	return createRelation(db, AttrTable, []engine.Column{
		{Name: ColOwner, Type: engine.TInt},
		{Name: ColAttrName, Type: engine.TText},
		{Name: ColValue, Type: engine.TText},
	}, indexDef{"_owner", []string{ColOwner}})
}

// newPathRegistry creates the paths relation, or attaches to an
// existing one (a reopened persistent store) by rebuilding the
// path→id map from its rows.
func newPathRegistry(db *engine.DB) (pathRegistry, error) {
	r := pathRegistry{table: db.Table(PathsTable), ids: map[string]int64{}}
	if r.table != nil {
		for _, row := range r.table.Rows() {
			r.ids[row[1].S] = row[0].I
		}
		return r, nil
	}
	var err error
	r.table, err = createRelation(db, PathsTable, []engine.Column{
		{Name: ColID, Type: engine.TInt},
		{Name: "path", Type: engine.TText},
	}, indexDef{"_pk", []string{ColID}})
	return r, err
}

// id returns the path's id, buffering a new paths row into the
// batch on first sight so the row commits atomically with the
// document that introduced the path.
func (r *pathRegistry) id(b *engine.WriteBatch, path string) int64 {
	if id, ok := r.ids[path]; ok {
		return id
	}
	id := int64(len(r.ids) + 1)
	r.ids[path] = id
	r.fresh = append(r.fresh, path)
	if err := b.Insert(r.table, []engine.Value{engine.NewInt(id), engine.NewText(path)}); err != nil {
		panic(err) // statically shaped row; unreachable
	}
	return id
}

// loader is the document-load state and skeleton the three stores
// share. Node ids are globally unique across documents: a document's
// element ids are the id base plus its own node ids, and the base
// advances by the largest element id — only after the document's
// batch has committed, like the document counter and the registered
// paths.
type loader struct {
	paths  pathRegistry
	nextID int64
	docs   int64
}

// rescan raises the counters to cover the rows of an existing
// relation (a reopened persistent store), so loading continues where
// the previous process stopped.
func (l *loader) rescan(t *engine.Table) {
	idCol, docCol := t.ColIndex(ColID), t.ColIndex(ColDoc)
	for _, row := range t.Rows() {
		if id := row[idCol].I; id > l.nextID {
			l.nextID = id
		}
		if docCol >= 0 && row[docCol].I > l.docs {
			l.docs = row[docCol].I
		}
	}
}

// load shreds one document and returns its document id. emit buffers
// the rows of one element, given its global id and its parent's (NULL
// for the root). The whole document commits as one write batch: a
// single WAL record and a single published snapshot, so concurrent
// readers (and crash recovery) see either all of the document's rows
// — across every relation it touches — or none of them.
func (l *loader) load(db *engine.DB, doc *xmltree.Document,
	emit func(b *engine.WriteBatch, n *xmltree.Node, docID int64, id, par engine.Value) error) (int64, error) {
	docID := l.docs + 1
	maxID := l.nextID
	batch := db.NewWriteBatch()
	for _, n := range doc.Nodes() {
		if n.Kind != xmltree.Element {
			continue
		}
		id := l.nextID + n.ID
		if id > maxID {
			maxID = id
		}
		par := engine.Null
		if n.Parent != nil {
			par = engine.NewInt(l.nextID + n.Parent.ID)
		}
		if err := emit(batch, n, docID, engine.NewInt(id), par); err != nil {
			l.paths.rollback()
			return 0, fmt.Errorf("shred: load %q: %w", n.Path, err)
		}
	}
	if err := batch.Commit(); err != nil {
		l.paths.rollback()
		return 0, fmt.Errorf("shred: load document %d: %w", docID, err)
	}
	l.paths.fresh = nil
	l.docs, l.nextID = docID, maxID
	return docID, nil
}

// SchemaAwareStore holds documents shredded under the schema-aware
// mapping.
type SchemaAwareStore struct {
	DB     *engine.DB
	Schema *schema.Schema
	loader
}

// NewSchemaAware creates the relational schema for an XML Schema
// graph: one relation per element definition with descriptor columns,
// text and attribute columns, plus the shared paths relation and the
// Section 3.1 indexes (primary key, parent foreign key, composite
// (dewey_pos, path_id)).
func NewSchemaAware(s *schema.Schema) (*SchemaAwareStore, error) {
	return NewSchemaAwareDB(engine.NewDB(), s)
}

// NewSchemaAwareDB is NewSchemaAware against a caller-provided
// database — typically a persistent one (engine.Open). On an empty
// database it creates the relational schema; on a database that
// already holds it (a reopened store), it attaches instead, rebuilding
// the path registry and the id/document counters from the stored
// rows so loading can continue where the previous process stopped.
func NewSchemaAwareDB(db *engine.DB, s *schema.Schema) (*SchemaAwareStore, error) {
	attach := db.Table(PathsTable) != nil
	paths, err := newPathRegistry(db)
	if err != nil {
		return nil, err
	}
	st := &SchemaAwareStore{DB: db, Schema: s, loader: loader{paths: paths}}
	for _, n := range s.Nodes() {
		rel := RelName(n.Name)
		if attach {
			t := db.Table(rel)
			if t == nil {
				return nil, fmt.Errorf("shred: existing database has no relation %q for element %q", rel, n.Name)
			}
			st.rescan(t)
			continue
		}
		cols := []engine.Column{
			{Name: ColID, Type: engine.TInt},
			{Name: ColPar, Type: engine.TInt},
			{Name: ColDewey, Type: engine.TBytes},
			{Name: ColPath, Type: engine.TInt},
		}
		if n.IsRoot {
			cols = append(cols, engine.Column{Name: ColDoc, Type: engine.TInt})
		}
		if n.HasText {
			cols = append(cols, engine.Column{Name: ColText, Type: engine.TText})
		}
		for _, a := range n.Attrs {
			cols = append(cols, engine.Column{Name: AttrCol(a), Type: engine.TText})
		}
		if _, err := createRelation(db, rel, cols, descriptorIndexes...); err != nil {
			return nil, fmt.Errorf("shred: element %q: %w", n.Name, err)
		}
	}
	return st, nil
}

// Load shreds one document, returning its document id. The first
// document's element ids equal the document's own node ids.
func (st *SchemaAwareStore) Load(doc *xmltree.Document) (int64, error) {
	if err := st.Schema.Validate(doc); err != nil {
		return 0, err
	}
	return st.load(st.DB, doc, func(b *engine.WriteBatch, n *xmltree.Node, docID int64, id, par engine.Value) error {
		sn := st.Schema.Node(n.Name)
		t := st.DB.Table(RelName(n.Name))
		row := make([]engine.Value, 0, len(t.Cols))
		row = append(row, id, par,
			engine.NewBytes(dewey.WithRoot(n.Pos, int(docID))), engine.NewInt(st.paths.id(b, n.Path)))
		if sn.IsRoot {
			row = append(row, engine.NewInt(docID))
		}
		if sn.HasText {
			row = append(row, directText(n))
		}
		for _, a := range sn.Attrs {
			if v, ok := n.Attr(a); ok {
				row = append(row, engine.NewText(v))
			} else {
				row = append(row, engine.Null)
			}
		}
		return b.Insert(t, row)
	})
}

// directText returns the concatenation of an element's direct text
// children (the value stored in the 'text' column), or NULL when the
// element has none.
func directText(n *xmltree.Node) engine.Value {
	var b strings.Builder
	found := false
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			b.WriteString(c.Value)
			found = true
		}
	}
	if !found {
		return engine.Null
	}
	return engine.NewText(b.String())
}

// EdgeStore holds documents shredded under the schema-oblivious
// Edge-like mapping: every element is a tuple of the central 'edge'
// relation; attributes live in a separate 'attr' relation.
type EdgeStore struct {
	DB   *engine.DB
	Edge *engine.Table
	Attr *engine.Table
	loader
}

// Edge mapping table and column names.
const (
	EdgeTable   = "edge"
	AttrTable   = "attr"
	ColName     = "name"
	ColOwner    = "owner"
	ColAttrName = "aname"
	ColValue    = "value"
)

// NewEdge creates the Edge-like relational schema.
func NewEdge() (*EdgeStore, error) { return NewEdgeDB(engine.NewDB()) }

// NewEdgeDB is NewEdge against a caller-provided database, attaching
// to an existing Edge schema (a reopened persistent store) when the
// edge relation is already present.
func NewEdgeDB(db *engine.DB) (*EdgeStore, error) {
	st := &EdgeStore{DB: db, Edge: db.Table(EdgeTable), Attr: db.Table(AttrTable)}
	attach := st.Edge != nil
	if attach && st.Attr == nil {
		return nil, fmt.Errorf("shred: existing database has %q but no %q", EdgeTable, AttrTable)
	}
	var err error
	if st.paths, err = newPathRegistry(db); err != nil {
		return nil, err
	}
	if attach {
		st.rescan(st.Edge)
		return st, nil
	}
	if st.Edge, err = createRelation(db, EdgeTable, []engine.Column{
		{Name: ColID, Type: engine.TInt},
		{Name: ColPar, Type: engine.TInt},
		{Name: ColDewey, Type: engine.TBytes},
		{Name: ColPath, Type: engine.TInt},
		{Name: ColDoc, Type: engine.TInt},
		{Name: ColName, Type: engine.TText},
		{Name: ColText, Type: engine.TText},
	}, descriptorIndexes...); err != nil {
		return nil, err
	}
	if st.Attr, err = createAttr(db); err != nil {
		return nil, err
	}
	return st, nil
}

// Load shreds one document into the Edge mapping: edge rows,
// attribute rows, and new paths rows commit together.
func (st *EdgeStore) Load(doc *xmltree.Document) (int64, error) {
	return st.load(st.DB, doc, func(b *engine.WriteBatch, n *xmltree.Node, docID int64, id, par engine.Value) error {
		if err := b.Insert(st.Edge, []engine.Value{
			id, par, engine.NewBytes(dewey.WithRoot(n.Pos, int(docID))),
			engine.NewInt(st.paths.id(b, n.Path)), engine.NewInt(docID),
			engine.NewText(n.Name), directText(n),
		}); err != nil {
			return err
		}
		for _, a := range n.Attrs {
			if err := b.Insert(st.Attr, []engine.Value{id, engine.NewText(a.Name), engine.NewText(a.Value)}); err != nil {
				return err
			}
		}
		return nil
	})
}

// AccelStore holds documents shredded under the XPath Accelerator
// (pre/post region encoding) mapping of Grust et al., the baseline of
// Section 5.2.
type AccelStore struct {
	DB    *engine.DB
	Accel *engine.Table
	Attr  *engine.Table
	loader
}

// Accelerator table and column names.
const (
	AccelTable = "accel"
	ColPre     = "pre"
	ColPost    = "post"
)

// ColSize is the accelerator's subtree-size column: the number of
// element descendants, giving the two-sided "staked-out" descendant
// window [pre+1, pre+size].
const ColSize = "size"

// NewAccel creates the accelerator schema: accel(pre, post, par,
// size, id, doc_id, name, text) with B-tree indexes on pre, post and
// par, plus the attribute relation.
func NewAccel() (*AccelStore, error) {
	db := engine.NewDB()
	accel, err := createRelation(db, AccelTable, []engine.Column{
		{Name: ColPre, Type: engine.TInt},
		{Name: ColPost, Type: engine.TInt},
		{Name: ColPar, Type: engine.TInt},  // pre of parent
		{Name: ColSize, Type: engine.TInt}, // element descendants
		{Name: ColID, Type: engine.TInt},   // document-global element id
		{Name: ColDoc, Type: engine.TInt},
		{Name: ColName, Type: engine.TText},
		{Name: ColText, Type: engine.TText},
	}, indexDef{"_pre", []string{ColPre}}, indexDef{"_post", []string{ColPost}}, indexDef{"_par", []string{ColPar}})
	if err != nil {
		return nil, err
	}
	attr, err := createAttr(db) // owner is the pre rank
	if err != nil {
		return nil, err
	}
	return &AccelStore{DB: db, Accel: accel, Attr: attr}, nil
}

// Load shreds one document into the accelerator mapping.
func (st *AccelStore) Load(doc *xmltree.Document) (int64, error) {
	// Assign pre/post ranks and subtree sizes over element nodes only;
	// ranks continue after those of the documents already stored.
	pre := map[*xmltree.Node]int64{}
	post := map[*xmltree.Node]int64{}
	size := map[*xmltree.Node]int64{}
	preBase := int64(len(st.Accel.Rows()))
	var preCtr, postCtr int64
	var walk func(n *xmltree.Node) int64
	walk = func(n *xmltree.Node) int64 {
		if n.Kind != xmltree.Element {
			return 0
		}
		preCtr++
		pre[n] = preBase + preCtr
		var desc int64
		for _, c := range n.Children {
			desc += walk(c)
		}
		postCtr++
		post[n] = preBase + postCtr
		size[n] = desc
		return desc + 1
	}
	walk(doc.Root)

	return st.load(st.DB, doc, func(b *engine.WriteBatch, n *xmltree.Node, docID int64, id, _ engine.Value) error {
		par := engine.Null
		if n.Parent != nil {
			par = engine.NewInt(pre[n.Parent])
		}
		if err := b.Insert(st.Accel, []engine.Value{
			engine.NewInt(pre[n]), engine.NewInt(post[n]), par, engine.NewInt(size[n]),
			id, engine.NewInt(docID), engine.NewText(n.Name), directText(n),
		}); err != nil {
			return err
		}
		for _, a := range n.Attrs {
			if err := b.Insert(st.Attr, []engine.Value{engine.NewInt(pre[n]), engine.NewText(a.Name), engine.NewText(a.Value)}); err != nil {
				return err
			}
		}
		return nil
	})
}

// PathCount returns the number of distinct root-to-node paths stored.
func (st *SchemaAwareStore) PathCount() int { return len(st.paths.ids) }

// PathCount returns the number of distinct root-to-node paths stored.
func (st *EdgeStore) PathCount() int { return len(st.paths.ids) }
