package gsql

import (
	"container/list"
	"fmt"
)

// defaultPlanCacheCap bounds the per-session plan cache. A session rarely
// runs more than a few hundred distinct statement shapes; parameterized
// statements collapse whole workloads onto a handful of entries.
const defaultPlanCacheCap = 256

// preparedStatement is one parsed (and, for SELECT, UPDATE and DELETE,
// planned) statement. version records the catalog DDL version the plan was
// built against; a mismatch at lookup time forces a replan, so cached plans
// never outlive a CREATE/DROP that could have changed the schemas they
// reference.
type preparedStatement struct {
	text      string
	stmt      Statement
	numParams int
	plan      *selectPlan // non-nil for SELECT, and for UPDATE/DELETE the plan of their row search
	version   uint64      // catalog DDL version at plan time
}

// planCache is an LRU of preparedStatements keyed by SQL text. It belongs
// to one Session and inherits the session's no-concurrency contract, so it
// is unsynchronized.
type planCache struct {
	cap          int
	ll           *list.List // front = most recently used; values *preparedStatement
	byText       map[string]*list.Element
	hits, misses uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), byText: make(map[string]*list.Element)}
}

// get returns the cached statement for text when present and still valid
// for the given catalog version. A stale entry is evicted and reported as
// a miss.
func (c *planCache) get(text string, version uint64) *preparedStatement {
	el, ok := c.byText[text]
	if !ok {
		c.misses++
		return nil
	}
	cs := el.Value.(*preparedStatement)
	if cs.version != version {
		c.ll.Remove(el)
		delete(c.byText, text)
		c.misses++
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	return cs
}

// put inserts a statement, evicting the least recently used entry when the
// cache is full.
func (c *planCache) put(cs *preparedStatement) {
	if el, ok := c.byText[cs.text]; ok {
		el.Value = cs
		c.ll.MoveToFront(el)
		return
	}
	c.byText[cs.text] = c.ll.PushFront(cs)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byText, oldest.Value.(*preparedStatement).text)
	}
}

// PlanCacheStats reports the session plan cache's hit/miss counters and
// current size, for observability and tests.
func (s *Session) PlanCacheStats() (hits, misses uint64, size int) {
	return s.plans.hits, s.plans.misses, s.plans.ll.Len()
}

// cachedStatement returns the parsed+planned form of sql, consulting the
// session plan cache first. Entries are keyed by the exact statement text
// and invalidated when the cluster catalog's DDL version moves.
func (s *Session) cachedStatement(sql string) (*preparedStatement, error) {
	version := s.db.CatalogVersion()
	if cs := s.plans.get(sql, version); cs != nil {
		return cs, nil
	}
	cs, err := s.prepareText(sql, version)
	if err != nil {
		return nil, err
	}
	s.plans.put(cs)
	return cs, nil
}

// prepareText parses sql and plans it when it reads rows: a SELECT, or the
// row search of an UPDATE/DELETE.
func (s *Session) prepareText(sql string, version uint64) (*preparedStatement, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	cs := &preparedStatement{text: sql, stmt: stmt, numParams: CountParams(stmt), version: version}
	if sel := planTarget(stmt); sel != nil {
		if cs.plan, err = planSelect(s, sel); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// bindArgs normalizes parameter values and checks their count against the
// statement's placeholder count.
func bindArgs(numParams int, args []any) ([]any, error) {
	params, err := normalizeArgs(args)
	if err != nil {
		return nil, err
	}
	if len(params) != numParams {
		return nil, fmt.Errorf("gsql: statement expects %d parameters, got %d", numParams, len(params))
	}
	return params, nil
}
