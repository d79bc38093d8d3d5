package index

// Stats is empty: the query planner reads no statistics (DESIGN.md
// "Planning & aggregations"). It remains only because the frozen
// benchmark probe passes catalog.Database.Stats() to
// query.BuildPlanWithStats; ROADMAP item 3(d) deletes it with them.
type Stats struct{}
