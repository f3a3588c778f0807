// Package serve is the multi-tenant query layer of the EGACS daemon: it
// parses graph-query requests, admits them through a bounded work queue with
// per-tenant caps, runs them on pooled engines through the resilient
// execution chain, and degrades gracefully under overload — shedding result
// verification first, then serving the serial reference, then rejecting
// with backpressure statuses — instead of falling over.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// ErrBadRequest marks client errors (malformed query, unknown kind, node out
// of range); the handler maps it to 400.
var ErrBadRequest = errors.New("bad request")

// Query is one parsed graph query. Kind selects the kernel; Src the source
// node for traversals; Node an optional single-node lookup in the output;
// TopK bounds the PageRank ranking size; Tenant attributes the request for
// per-tenant admission.
type Query struct {
	Kind   string `json:"kind"`
	Src    int32  `json:"src"`
	Node   int32  `json:"node"`
	TopK   int    `json:"k"`
	Tenant string `json:"tenant"`

	// HasNode records whether the request asked for a node lookup at all
	// (node 0 is a valid node).
	HasNode bool `json:"-"`
}

// kindKernel maps query kinds to benchmark names.
var kindKernel = map[string]string{
	"bfs":  "bfs-wl",
	"sssp": "sssp-nf",
	"pr":   "pr",
	"cc":   "cc",
}

// Kernel returns the benchmark name for the query's kind.
func (q *Query) Kernel() string { return kindKernel[q.Kind] }

const (
	defaultTopK = 10
	maxTopK     = 1000
	maxTenant   = 64
)

// ParseQuery decodes a query from a raw URL query string and an optional
// JSON body (body fields win). It is a pure function of its inputs — no
// graph, no server state — so it can be fuzzed in isolation; the only
// graph-dependent check (node ranges) happens in Query.Validate. Any
// malformed input returns an error wrapping ErrBadRequest; it never panics.
func ParseQuery(rawQuery string, body []byte) (*Query, error) {
	q := &Query{TopK: defaultTopK, Node: -1}

	vals, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, fmt.Errorf("%w: query string: %v", ErrBadRequest, err)
	}
	if v := vals.Get("kind"); v != "" {
		q.Kind = v
	}
	if v := vals.Get("src"); v != "" {
		n, err := parseNode("src", v)
		if err != nil {
			return nil, err
		}
		q.Src = n
	}
	if v := vals.Get("node"); v != "" {
		n, err := parseNode("node", v)
		if err != nil {
			return nil, err
		}
		q.Node, q.HasNode = n, true
	}
	if v := vals.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%w: k %q: %v", ErrBadRequest, v, err)
		}
		q.TopK = k
	}
	if v := vals.Get("tenant"); v != "" {
		q.Tenant = v
	}

	if len(body) > 0 {
		var b struct {
			Kind   *string `json:"kind"`
			Src    *int64  `json:"src"`
			Node   *int64  `json:"node"`
			TopK   *int    `json:"k"`
			Tenant *string `json:"tenant"`
		}
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			return nil, fmt.Errorf("%w: body: %v", ErrBadRequest, err)
		}
		if b.Kind != nil {
			q.Kind = *b.Kind
		}
		if b.Src != nil {
			if err := checkNodeRange("src", *b.Src); err != nil {
				return nil, err
			}
			q.Src = int32(*b.Src)
		}
		if b.Node != nil {
			if err := checkNodeRange("node", *b.Node); err != nil {
				return nil, err
			}
			q.Node, q.HasNode = int32(*b.Node), true
		}
		if b.TopK != nil {
			q.TopK = *b.TopK
		}
		if b.Tenant != nil {
			q.Tenant = *b.Tenant
		}
	}

	if _, ok := kindKernel[q.Kind]; !ok {
		return nil, fmt.Errorf("%w: unknown kind %q (want bfs|sssp|pr|cc)", ErrBadRequest, q.Kind)
	}
	if q.TopK < 1 || q.TopK > maxTopK {
		return nil, fmt.Errorf("%w: k %d out of range [1,%d]", ErrBadRequest, q.TopK, maxTopK)
	}
	if len(q.Tenant) > maxTenant {
		return nil, fmt.Errorf("%w: tenant name longer than %d bytes", ErrBadRequest, maxTenant)
	}
	if q.Tenant == "" {
		q.Tenant = "default"
	}
	return q, nil
}

func parseNode(field, v string) (int32, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q: %v", ErrBadRequest, field, v, err)
	}
	if err := checkNodeRange(field, n); err != nil {
		return 0, err
	}
	return int32(n), nil
}

func checkNodeRange(field string, n int64) error {
	if n < 0 || n > 1<<31-2 {
		return fmt.Errorf("%w: %s %d out of range", ErrBadRequest, field, n)
	}
	return nil
}

// Validate checks the query's node references against the served graph.
func (q *Query) Validate(numNodes int32) error {
	if q.Src >= numNodes {
		return fmt.Errorf("%w: src %d outside graph (%d nodes)", ErrBadRequest, q.Src, numNodes)
	}
	if q.HasNode && q.Node >= numNodes {
		return fmt.Errorf("%w: node %d outside graph (%d nodes)", ErrBadRequest, q.Node, numNodes)
	}
	return nil
}
