// Command xpsql translates XPath queries to SQL with the PPF
// technique and optionally executes them against a document loaded
// into the embedded engine.
//
// Usage:
//
//	xpsql -schema site.schema [-xsd] [-mapping aware|edge|accel] \
//	      [-load doc.xml] [-explain] 'XPATH' [...]
//
// The schema file uses the compact DSL (or XSD with -xsd):
//
//	!root A
//	A -> B @x
//	B -> C G
//	F #text
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmltree"
)

func main() {
	schemaPath := flag.String("schema", "", "schema file (compact DSL, or XSD with -xsd); required for the aware mapping")
	useXSD := flag.Bool("xsd", false, "parse the schema file as XML Schema")
	mapping := flag.String("mapping", "aware", "storage mapping: aware, edge or accel")
	load := flag.String("load", "", "XML document to load and query")
	explain := flag.Bool("explain", false, "print the engine's execution plan (requires -load)")
	noOmit := flag.Bool("no-path-omission", false, "disable the Section 4.5 path-filter omission")
	noFK := flag.Bool("no-fk-joins", false, "use Dewey joins even for child/parent steps")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "xpsql: no XPath queries given")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*schemaPath, *useXSD, *mapping, *load, *explain, *noOmit, *noFK, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "xpsql:", err)
		os.Exit(1)
	}
}

func run(schemaPath string, useXSD bool, mapping, load string, explain, noOmit, noFK bool, queries []string) error {
	var s *schema.Schema
	var doc *xmltree.Document
	var err error

	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		doc, err = xmltree.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	switch {
	case schemaPath != "":
		data, err := os.ReadFile(schemaPath)
		if err != nil {
			return err
		}
		if useXSD {
			s, err = schema.ParseXSD(strings.NewReader(string(data)))
		} else {
			s, err = schema.ParseCompact(string(data))
		}
		if err != nil {
			return err
		}
	case doc != nil:
		if s, err = schema.Infer(doc); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "xpsql: note: schema inferred from the document")
	case mapping == "aware":
		return fmt.Errorf("the aware mapping needs -schema (or -load to infer one)")
	}

	var db *engine.DB
	translate := func(q string) (sqlast.Statement, string, error) {
		switch mapping {
		case "aware":
			opts := core.DefaultOptions()
			opts.PathFilterOmission = !noOmit
			opts.FKChildParent = !noFK
			tr, err := core.New(s, &opts).Translate(q)
			if err != nil {
				return nil, "", err
			}
			return tr.Stmt, tr.SQL, nil
		case "edge":
			tr, err := core.NewEdge(nil).Translate(q)
			if err != nil {
				return nil, "", err
			}
			return tr.Stmt, tr.SQL, nil
		case "accel":
			tr, err := accel.New().Translate(q)
			if err != nil {
				return nil, "", err
			}
			return tr.Stmt, tr.SQL, nil
		default:
			return nil, "", fmt.Errorf("unknown mapping %q", mapping)
		}
	}

	if doc != nil {
		switch mapping {
		case "aware":
			st, err := shred.NewSchemaAware(s)
			if err != nil {
				return err
			}
			if _, err := st.Load(doc); err != nil {
				return err
			}
			db = st.DB
		case "edge":
			st, err := shred.NewEdge()
			if err != nil {
				return err
			}
			if _, err := st.Load(doc); err != nil {
				return err
			}
			db = st.DB
		case "accel":
			st, err := shred.NewAccel()
			if err != nil {
				return err
			}
			if _, err := st.Load(doc); err != nil {
				return err
			}
			db = st.DB
		}
	}

	for _, q := range queries {
		stmt, sql, err := translate(q)
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		fmt.Printf("-- %s\n%s\n", q, sql)
		if db == nil {
			continue
		}
		if explain {
			plan, err := db.Explain(stmt)
			if err != nil {
				return err
			}
			fmt.Println("-- plan:")
			for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
				fmt.Println("--   " + line)
			}
		}
		res, err := db.RunWithOptionsContext(nil, stmt, engine.ExecOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("-- %d node(s)\n", len(res.Rows))
		for i, r := range res.Rows {
			if i >= 20 {
				fmt.Printf("-- ... %d more\n", len(res.Rows)-20)
				break
			}
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			fmt.Println("--   " + strings.Join(cells, " | "))
		}
		fmt.Println()
	}
	return nil
}
