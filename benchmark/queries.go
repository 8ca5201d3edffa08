package main

// The query texts are copied here, not read from xmark.Queries and
// dblp.Queries, so a change to those packages cannot silently change
// the workload: expected.json pins every result below for seed 42.

type query struct {
	ID    string
	XPath string
}

// xmarkQueries is the XPathMark subset of the paper's Appendix B plus
// the join query Q-A of Section 5.
var xmarkQueries = []query{
	{"Q1", "/site/regions/*/item"},
	{"Q2", "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/text/keyword"},
	{"Q3", "//keyword"},
	{"Q4", "/descendant-or-self::listitem/descendant-or-self::keyword"},
	{"Q5", "/site/regions/*/item[parent::namerica or parent::samerica]"},
	{"Q6", "//keyword/ancestor::listitem"},
	{"Q7", "//keyword/ancestor-or-self::mail"},
	{"Q9", "/site/open_auctions/open_auction[@id='open_auction0']/bidder/preceding-sibling::bidder"},
	{"Q10", "/site/regions/*/item[@id='item0']/following::item"},
	{"Q11", "/site/open_auctions/open_auction/bidder[personref/@person='person1']/preceding::bidder[personref/@person='person0']"},
	{"Q12", "//item[@featured='yes']"},
	{"Q13", "//*[@id]"},
	{"Q21", "/site/regions/*/item[@id='item0']/description//keyword/text()"},
	{"Q22", "/site/regions/namerica/item | /site/regions/samerica/item"},
	{"Q23", "/site/people/person[address and (phone or homepage)]"},
	{"Q24", "/site/people/person[not(homepage)]"},
	{"QA", "/site/open_auctions/open_auction[bidder/date = interval/start]"},
}

// dblpQueries is the paper's Table 7.
var dblpQueries = []query{
	{"QD1", "//inproceedings/title[preceding-sibling::author = 'Harold G. Longbotham']"},
	{"QD2", "/dblp/inproceedings[year>=1994]//sup"},
	{"QD3", "/dblp/inproceedings/title/sup"},
	{"QD4", "//i[parent::*/parent::sub/ancestor::article]"},
	{"QD5", "/dblp/inproceedings[author=/dblp/book/author]/title"},
}

// readRound is the fixed read round load_durable runs between
// commits: a scan, the two heaviest joins' shapes, two point lookups
// and a predicate query, all on XMark.
var readRound = pick(xmarkQueries, "Q1", "Q3", "Q6", "Q9", "Q12", "Q23")

func pick(from []query, ids ...string) []query {
	var out []query
	for _, id := range ids {
		for _, q := range from {
			if q.ID == id {
				out = append(out, q)
			}
		}
	}
	return out
}

// template is one adhoc_cold query shape: Format with a key value
// substituted is the query text; General is the same path without the
// key predicate, which the native oracle evaluates once. A result node
// of General belongs to the key of its nearest Anchor ancestor: the
// anchor's KeyAttr, or that attribute of the anchor's KeyChild.
type template struct {
	Name     string
	Format   string
	General  string
	Anchor   string
	KeyChild string
	KeyAttr  string
}

var adhocTemplates = []template{
	{Name: "person_name",
		Format:  "/site/people/person[@id='%s']/name",
		General: "/site/people/person/name",
		Anchor:  "person", KeyAttr: "id"},
	{Name: "q9_bidders",
		Format:  "/site/open_auctions/open_auction[@id='%s']/bidder/preceding-sibling::bidder",
		General: "/site/open_auctions/open_auction/bidder/preceding-sibling::bidder",
		Anchor:  "open_auction", KeyAttr: "id"},
	{Name: "q21_keywords",
		Format:  "/site/regions/*/item[@id='%s']/description//keyword/text()",
		General: "/site/regions/*/item/description//keyword/text()",
		Anchor:  "item", KeyAttr: "id"},
	{Name: "person_watches",
		Format:  "//person[@id='%s']/watches/watch",
		General: "//person/watches/watch",
		Anchor:  "person", KeyAttr: "id"},
	{Name: "closed_by_buyer",
		Format:  "/site/closed_auctions/closed_auction[buyer/@person='%s']/price",
		General: "/site/closed_auctions/closed_auction/price",
		Anchor:  "closed_auction", KeyChild: "buyer", KeyAttr: "person"},
	{Name: "category_name",
		Format:  "/site/categories/category[@id='%s']/name",
		General: "/site/categories/category/name",
		Anchor:  "category", KeyAttr: "id"},
}
