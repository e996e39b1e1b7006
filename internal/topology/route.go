package topology

// Path appends the edges of the unique path from u to v to dst and returns
// the extended slice. The edges appear in order from u toward v. Passing the
// same node twice yields an empty path.
func (t *Tree) Path(dst []EdgeID, u, v NodeID) []EdgeID {
	if u == v {
		return dst
	}
	// Climb both endpoints to their LCA. Edges from u's side are appended in
	// walk order; edges from v's side are collected and appended reversed so
	// that the result reads u -> v.
	var fromV []EdgeID
	for u != v {
		if t.depth[u] >= t.depth[v] {
			dst = append(dst, t.parentEdge[u])
			u = t.parent[u]
		} else {
			fromV = append(fromV, t.parentEdge[v])
			v = t.parent[v]
		}
	}
	for i := len(fromV) - 1; i >= 0; i-- {
		dst = append(dst, fromV[i])
	}
	return dst
}

// PathLen reports the number of edges on the unique path from u to v in
// O(1), using the Euler-tour LCA index.
func (t *Tree) PathLen(u, v NodeID) int {
	l := t.LCA(u, v)
	return int(t.depth[u] + t.depth[v] - 2*t.depth[l])
}
