//! The SciSPARQL executor.
//!
//! Evaluates optimized [`Plan`] trees against a [`Dataset`] with
//! materialized binding sets, mirroring SSDM's execution algebra
//! (thesis §5.4.4): index-driven nested-loop joins over the graph's
//! SPO/POS/OSP indexes, left joins for OPTIONAL, three-valued filter
//! logic, grouping/aggregation, and lazy array handling — array proxies
//! flow through bindings untouched until an expression demands their
//! elements.

pub mod agg;
pub mod builtins;
pub mod expr;
pub mod path;

use std::collections::HashMap;

use ssdm_rdf::{Term, TermId};

use crate::algebra::{self, Plan};
use crate::ast::*;
use crate::dataset::{Dataset, QueryError, QueryResult};
use crate::value::Value;

/// One solution: variable → value.
pub type Row = HashMap<String, Value>;

/// Projected SELECT output: column names plus rows of optional values.
pub type SelectOutput = (Vec<String>, Vec<Vec<Option<Value>>>);

/// Execute a SELECT query.
pub fn execute_select(ds: &mut Dataset, q: &SelectQuery) -> Result<QueryResult, QueryError> {
    let (vars, rows) = select_solutions(ds, q, Row::new())?;
    Ok(QueryResult::Solutions { vars, rows })
}

/// Execute a SELECT query with initial bindings (the entry point for
/// parameterized-view calls, where parameters arrive pre-bound).
pub fn select_solutions(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Row,
) -> Result<SelectOutput, QueryError> {
    // FROM / FROM NAMED: retarget the default graph and restrict the
    // named-graph universe for this query (thesis §3.3.4).
    let saved_active = ds.active_graph.clone();
    let saved_visible = ds.visible_named.clone();
    if let Some(f) = &q.from {
        ds.active_graph = Some(f.clone());
    }
    if !q.from_named.is_empty() {
        ds.visible_named = Some(q.from_named.clone());
    }
    let result = select_solutions_inner(ds, q, initial);
    ds.active_graph = saved_active;
    ds.visible_named = saved_visible;
    result
}

fn select_solutions_inner(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Row,
) -> Result<SelectOutput, QueryError> {
    let solutions = eval_pattern(ds, &q.pattern, vec![initial])?;

    // Projection handling, with or without grouping.
    let items: Vec<ProjectionItem> = match &q.projection {
        Projection::Items(items) => items.clone(),
        Projection::All => {
            let mut vars = Vec::new();
            q.pattern.bindable_vars(&mut vars);
            vars.into_iter()
                .filter(|v| !v.starts_with('_'))
                .map(|v| ProjectionItem {
                    expr: Expr::Var(v),
                    alias: None,
                })
                .collect()
        }
    };
    let needs_grouping = !q.group_by.is_empty()
        || items.iter().any(|i| i.expr.has_aggregate())
        || q.having.as_ref().map(Expr::has_aggregate).unwrap_or(false);

    // Projection (and aggregation) resolves array proxies *outside* the
    // plan tree — e.g. `array_sum(?a)` in the SELECT clause fetches
    // chunks here. A synthetic operator row keeps that work attributed,
    // so per-operator counters still sum to the query totals.
    let profiling = ds.profiling();
    if profiling {
        ds.prof_enter("Project".into(), solutions.len() as u64, None, None);
    }
    let mut out_rows: Vec<Vec<Option<Value>>> = if needs_grouping {
        agg::grouped_projection(ds, &items, &q.group_by, &q.having, &solutions)?
    } else {
        let mut out = Vec::with_capacity(solutions.len());
        for row in &solutions {
            let mut cells = Vec::with_capacity(items.len());
            for item in &items {
                cells.push(expr::eval_expr(ds, row, &item.expr)?);
            }
            out.push(cells);
        }
        out
    };
    if profiling {
        ds.prof_exit(out_rows.len() as u64);
    }

    // ORDER BY. Sort keys can also force proxy resolution, hence the
    // synthetic operator row.
    if !q.order_by.is_empty() {
        if profiling {
            ds.prof_enter("OrderBy".into(), out_rows.len() as u64, None, None);
        }
        // Order keys evaluate against the projected row when they are
        // output aliases, else against the source solution.
        type Keyed = (Vec<Option<Value>>, Vec<Option<Value>>);
        let mut keyed: Vec<Keyed> = Vec::new();
        let source_rows: Vec<Row> = if needs_grouping {
            // After grouping, sort keys must reference projected columns.
            out_rows
                .iter()
                .map(|cells| {
                    items
                        .iter()
                        .zip(cells)
                        .filter_map(|(i, c)| c.clone().map(|v| (i.name(), v)))
                        .collect()
                })
                .collect()
        } else {
            // The original solutions, in the same order as out_rows.
            solutions.clone()
        };
        for (cells, src) in out_rows.into_iter().zip(source_rows) {
            let mut augmented = src;
            for (i, c) in items.iter().zip(&cells) {
                if let Some(v) = c {
                    augmented.entry(i.name()).or_insert_with(|| v.clone());
                }
            }
            let mut keys = Vec::with_capacity(q.order_by.len());
            for k in &q.order_by {
                keys.push(expr::eval_expr(ds, &augmented, &k.expr)?);
            }
            keyed.push((keys, cells));
        }
        keyed.sort_by(|a, b| {
            for (k, spec) in a.0.iter().zip(&b.0).zip(&q.order_by) {
                let (x, y) = k;
                let ord = match (x, y) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => x.order_cmp(y),
                };
                let ord = if spec.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = keyed.into_iter().map(|(_, c)| c).collect();
        if profiling {
            ds.prof_exit(out_rows.len() as u64);
        }
    }

    // DISTINCT.
    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| {
            let key = r
                .iter()
                .map(|c| c.as_ref().map(|v| v.to_string()).unwrap_or_default())
                .collect::<Vec<_>>()
                .join("\u{1}");
            seen.insert(key)
        });
    }

    // OFFSET / LIMIT.
    if let Some(off) = q.offset {
        out_rows.drain(..off.min(out_rows.len()));
    }
    if let Some(lim) = q.limit {
        out_rows.truncate(lim);
    }

    let vars = items.iter().map(|i| i.name()).collect();
    Ok((vars, out_rows))
}

/// Execute an ASK query.
pub fn execute_ask(ds: &mut Dataset, q: &AskQuery) -> Result<QueryResult, QueryError> {
    let rows = eval_pattern(ds, &q.pattern, vec![Row::new()])?;
    Ok(QueryResult::Boolean(!rows.is_empty()))
}

/// Execute a CONSTRUCT query.
pub fn execute_construct(ds: &mut Dataset, q: &ConstructQuery) -> Result<QueryResult, QueryError> {
    let rows = eval_pattern(ds, &q.pattern, vec![Row::new()])?;
    let mut out = ssdm_rdf::Graph::new();
    let mut blank_counter = 0usize;
    for row in rows {
        blank_counter += 1;
        for t in &q.template {
            let Some(s) = instantiate(ds, &row, &t.subject, blank_counter) else {
                continue;
            };
            let Some(TermPattern::Term(p)) = t
                .path
                .as_pred()
                .map(|p| match p {
                    TermPattern::Var(v) => row
                        .get(v)
                        .and_then(Value::as_term)
                        .cloned()
                        .map(TermPattern::Term),
                    TermPattern::Term(term) => Some(TermPattern::Term(term.clone())),
                })
                .unwrap_or(None)
            else {
                continue;
            };
            let Some(o) = instantiate(ds, &row, &t.object, blank_counter) else {
                continue;
            };
            out.insert(s, p, o);
            if let Some(lim) = q.limit {
                if out.len() >= lim {
                    return Ok(QueryResult::Graph(out));
                }
            }
        }
    }
    Ok(QueryResult::Graph(out))
}

fn instantiate(ds: &Dataset, row: &Row, tp: &TermPattern, solution: usize) -> Option<Term> {
    let _ = ds;
    match tp {
        TermPattern::Var(v) => match row.get(v)? {
            Value::Term(t) => Some(t.clone()),
            Value::Proxy(p) => Some(Term::ArrayRef(p.array_id())),
            Value::Closure(_) => None,
        },
        // Blank nodes in templates are scoped per solution.
        TermPattern::Term(Term::Blank(b)) => Some(Term::blank(format!("{b}_{solution}"))),
        TermPattern::Term(t) => Some(t.clone()),
    }
}

/// Optimize an already-translated plan with the dataset's full planner
/// context: configuration, calibration table and zone-map statistics.
fn plan_with_dataset(ds: &Dataset, translated: Plan) -> Plan {
    let ctx = crate::planner::PlannerCtx {
        graph: ds.active(),
        config: ds.planner,
        calibration: Some(&ds.calibration),
        zones: Some(&ds.arrays),
    };
    algebra::optimize_with(translated, &ctx)
}

/// Translate, optimize and evaluate a group pattern.
pub fn eval_pattern(
    ds: &mut Dataset,
    pattern: &GroupPattern,
    input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    if ds.profiling() {
        let t0 = std::time::Instant::now();
        let translated = algebra::translate(pattern);
        let t1 = std::time::Instant::now();
        let plan = plan_with_dataset(ds, translated);
        let t2 = std::time::Instant::now();
        ds.prof_phase("rewrite", t1.duration_since(t0));
        ds.prof_phase("plan", t2.duration_since(t1));
        return eval_plan(ds, &plan, input);
    }
    let plan = plan_with_dataset(ds, algebra::translate(pattern));
    eval_plan(ds, &plan, input)
}

/// The variables bound in every input row (structurally identical
/// across rows, so the first row suffices), as the planner's bound set.
fn bound_vars_of(input: &[Row]) -> std::collections::HashSet<String> {
    input
        .first()
        .map(|r| r.keys().cloned().collect())
        .unwrap_or_default()
}

/// Greedily re-order the unexecuted scan suffix of a running join by
/// estimated cardinality against the *actually* bound variables — the
/// mid-query re-optimization step. Callers guarantee every element is
/// a plain triple-pattern scan, so any permutation is join-equivalent.
fn reorder_suffix(ds: &Dataset, suffix: &mut [&Plan], rows: &[Row]) {
    let graph = ds.active();
    let mut bound = bound_vars_of(rows);
    for i in 0..suffix.len() {
        let best = (i..suffix.len())
            .min_by(|&a, &b| {
                let ea = algebra::estimate(suffix[a], graph, &bound);
                let eb = algebra::estimate(suffix[b], graph, &bound);
                ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty range");
        suffix.swap(i, best);
        suffix[i].certain_vars(&mut bound);
    }
}

/// The constant predicate of a scan node, as the calibration key.
fn scan_predicate(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Scan(t) => match t.path.as_pred() {
            Some(TermPattern::Term(p)) => Some(p.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluate a plan over input binding rows. With a profiler attached,
/// every node becomes one operator row carrying the planner's
/// (uncalibrated) estimate next to the observed cardinality; without,
/// this is a direct call into the evaluator.
pub fn eval_plan(ds: &mut Dataset, plan: &Plan, input: Vec<Row>) -> Result<Vec<Row>, QueryError> {
    if !ds.profiling() {
        return eval_plan_inner(ds, plan, input);
    }
    let rows_in = input.len() as u64;
    // Raw statistics estimate (calibration deliberately excluded, so
    // the feedback loop converges on true corrections instead of
    // re-correcting its own output).
    let est = algebra::estimate(plan, ds.active(), &bound_vars_of(&input)) * rows_in.max(1) as f64;
    ds.prof_enter(
        algebra::node_label(plan),
        rows_in,
        Some(est),
        scan_predicate(plan),
    );
    let result = eval_plan_inner(ds, plan, input);
    if let Ok(rows) = &result {
        ds.prof_exit(rows.len() as u64);
    }
    result
}

fn eval_plan_inner(ds: &mut Dataset, plan: &Plan, input: Vec<Row>) -> Result<Vec<Row>, QueryError> {
    match plan {
        Plan::Empty => Ok(input),
        Plan::Scan(t) => {
            if t.path.as_pred().is_some() {
                scan_triples(ds, t, input)
            } else {
                path::eval_path_scan(ds, t, input)
            }
        }
        Plan::Join(children) => {
            // Adaptive execution: children run left-to-right; when an
            // operator's observed cardinality exceeds its estimate by
            // more than the configured Q-error bound, the *unexecuted*
            // suffix is re-ordered against the now-known bindings.
            // Produced rows are kept untouched, and only commutative
            // suffixes (pure triple-pattern scans) are rewritten, so
            // results are multiset-identical to the static plan.
            let qbound = ds.planner.adaptive_qerror;
            let min_rows = ds.planner.adaptive_min_rows;
            let mut seq: Vec<&Plan> = children.iter().collect();
            let mut rows = input;
            let mut idx = 0;
            while idx < seq.len() {
                let child = seq[idx];
                // Pre-execution estimate, only when adaptivity could
                // still rewrite something downstream.
                let est = match qbound {
                    Some(_) if seq.len() - idx > 2 => Some(
                        algebra::estimate(child, ds.active(), &bound_vars_of(&rows))
                            * rows.len().max(1) as f64,
                    ),
                    _ => None,
                };
                rows = eval_plan(ds, child, rows)?;
                if rows.is_empty() {
                    break;
                }
                idx += 1;
                if let (Some(qmax), Some(est)) = (qbound, est) {
                    let actual = rows.len() as f64;
                    let blown = actual / est.max(0.5) > qmax;
                    if blown
                        && rows.len() >= min_rows
                        && seq[idx..]
                            .iter()
                            .all(|c| matches!(c, Plan::Scan(t) if t.path.as_pred().is_some()))
                    {
                        reorder_suffix(ds, &mut seq[idx..], &rows);
                        ds.prof_note_reopt();
                    }
                }
            }
            Ok(rows)
        }
        Plan::LeftJoin { left, right } => {
            let left_rows = eval_plan(ds, left, input)?;
            let mut out = Vec::with_capacity(left_rows.len());
            for lrow in left_rows {
                let matches = eval_plan(ds, right, vec![lrow.clone()])?;
                if matches.is_empty() {
                    out.push(lrow);
                } else {
                    out.extend(matches);
                }
            }
            Ok(out)
        }
        Plan::Union(branches) => {
            let mut out = Vec::new();
            for b in branches {
                out.extend(eval_plan(ds, b, input.clone())?);
            }
            Ok(out)
        }
        Plan::Filter { input: inner, expr } => {
            let rows = eval_plan(ds, inner, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                // Expression errors count as false (thesis §3.6).
                let keep = expr::eval_expr(ds, &row, expr)?
                    .and_then(|v| v.effective_bool())
                    .unwrap_or(false);
                if keep {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Extend {
            input: inner,
            var,
            expr,
        } => {
            let rows = eval_plan(ds, inner, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                // Subscript-variable enumeration (thesis §4.1.2): a
                // dereference whose subscripts contain unbound variables
                // fans the solution out over every valid subscript.
                if let Expr::ArrayDeref { base, subscripts } = expr {
                    let has_unbound = subscript_vars(subscripts)
                        .iter()
                        .any(|v| !row.contains_key(*v));
                    if has_unbound {
                        out.extend(enumerate_subscripts(ds, &row, var, base, subscripts)?);
                        continue;
                    }
                }
                // Bag-valued view calls (DAPLEX semantics, §2.6): a BIND
                // of a defined-function call fans out over EVERY solution
                // of the parameterized view, not just the first.
                if let Expr::Call { name, args } = expr {
                    if let Some(def) = ds.registry.lookup_defined(name) {
                        out.extend(bind_view_bag(ds, &row, var, &def, args)?);
                        continue;
                    }
                }
                match expr::eval_expr(ds, &row, expr)? {
                    Some(v) => match row.get(var) {
                        Some(existing) => {
                            if existing.value_eq(&v) {
                                out.push(row);
                            }
                        }
                        None => {
                            row.insert(var.clone(), v);
                            out.push(row);
                        }
                    },
                    // BIND errors leave the variable unbound.
                    None => out.push(row),
                }
            }
            Ok(out)
        }
        Plan::Graph { name, inner } => {
            let saved = ds.active_graph.clone();
            let result = eval_graph_plan(ds, name, inner, input);
            ds.active_graph = saved;
            result
        }
        Plan::SubSelect(q) => {
            // SPARQL subqueries evaluate bottom-up, then join.
            let (vars, sub_rows) = select_solutions(ds, q, Row::new())?;
            let mut out = Vec::new();
            for row in &input {
                'sub: for srow in &sub_rows {
                    let mut merged = row.clone();
                    for (var, cell) in vars.iter().zip(srow) {
                        if let Some(v) = cell {
                            match merged.get(var) {
                                Some(existing) if !existing.value_eq(v) => continue 'sub,
                                Some(_) => {}
                                None => {
                                    merged.insert(var.clone(), v.clone());
                                }
                            }
                        }
                    }
                    out.push(merged);
                }
            }
            Ok(out)
        }
        Plan::Minus {
            input: inner,
            pattern,
        } => {
            let rows = eval_plan(ds, inner, input)?;
            let minus_rows = eval_pattern(ds, pattern, vec![Row::new()])?;
            // SPARQL MINUS: drop a solution when some minus-solution
            // shares at least one variable and agrees on all shared ones.
            Ok(rows
                .into_iter()
                .filter(|row| {
                    !minus_rows.iter().any(|m| {
                        let mut shared = false;
                        for (k, v) in m {
                            if let Some(existing) = row.get(k) {
                                shared = true;
                                if !existing.value_eq(v) {
                                    return false;
                                }
                            }
                        }
                        shared
                    })
                })
                .collect())
        }
        Plan::Values { vars, rows: table } => {
            let mut out = Vec::new();
            for row in input {
                for vrow in table {
                    let mut merged = row.clone();
                    let mut ok = true;
                    for (var, cell) in vars.iter().zip(vrow) {
                        if let Some(term) = cell {
                            let v = ds.term_to_value(term);
                            match merged.get(var) {
                                Some(existing) if !existing.value_eq(&v) => {
                                    ok = false;
                                    break;
                                }
                                Some(_) => {}
                                None => {
                                    merged.insert(var.clone(), v);
                                }
                            }
                        }
                    }
                    if ok {
                        out.push(merged);
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Match a plain triple pattern against the graph for each input row.
fn scan_triples(
    ds: &mut Dataset,
    t: &TriplePattern,
    input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    let pred = t.path.as_pred().expect("caller checked").clone();
    let mut out = Vec::new();
    for row in input {
        // Resolve each position: bound (Some id / unmatched) or free var.
        let mut positions: [Option<TermId>; 3] = [None, None, None];
        let mut free: [Option<&str>; 3] = [None, None, None];
        // Array constants / computed arrays match by CONTENT, not node
        // identity (thesis §4.1.6): remember them for post-filtering.
        let mut content_checks: Vec<(usize, ssdm_array::NumArray)> = Vec::new();
        let mut dead = false;
        for (i, tp) in [&t.subject, &pred, &t.object].iter().enumerate() {
            match tp {
                TermPattern::Term(term) => match ds.active().dictionary().lookup(term) {
                    Some(id) => positions[i] = Some(id),
                    None => match term {
                        Term::Array(a) => content_checks.push((i, a.clone())),
                        _ => {
                            dead = true;
                            break;
                        }
                    },
                },
                TermPattern::Var(v) => match row.get(v.as_str()) {
                    Some(val) => match value_to_graph_id(ds, val) {
                        Some(id) => positions[i] = Some(id),
                        None => match val {
                            Value::Term(Term::Array(a)) => content_checks.push((i, a.clone())),
                            Value::Proxy(p) => content_checks
                                .push((i, ds.arrays.resolve(p, ds.strategy, ds.parallel)?)),
                            _ => {
                                dead = true;
                                break;
                            }
                        },
                    },
                    None => free[i] = Some(v.as_str()),
                },
            }
        }
        if dead {
            continue;
        }
        let mut matches: Vec<ssdm_rdf::Triple> = ds
            .active()
            .match_pattern(positions[0], positions[1], positions[2])
            .collect();
        if !content_checks.is_empty() {
            let mut kept = Vec::new();
            'triple: for m in matches {
                for (i, target) in &content_checks {
                    let id = [m.s, m.p, m.o][*i];
                    let candidate = match ds.active().term(id).clone() {
                        Term::Array(a) => a,
                        Term::ArrayRef(ext) => {
                            let proxy = ds.arrays.proxy(ext)?;
                            ds.arrays.resolve(&proxy, ds.strategy, ds.parallel)?
                        }
                        _ => continue 'triple,
                    };
                    if !candidate.array_eq(target) {
                        continue 'triple;
                    }
                }
                kept.push(m);
            }
            matches = kept;
        }
        for m in matches {
            let mut extended = row.clone();
            let mut ok = true;
            for (i, id) in [m.s, m.p, m.o].into_iter().enumerate() {
                if let Some(v) = free[i] {
                    let val = ds.term_to_value(ds.active().term(id));
                    match extended.get(v) {
                        Some(existing) => {
                            // Same variable twice in this pattern.
                            if !existing.value_eq(&val) {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            extended.insert(v.to_string(), val);
                        }
                    }
                }
            }
            if ok {
                out.push(extended);
            }
        }
    }
    Ok(out)
}

/// Map a bound value back to a graph term id, if it denotes a graph
/// node. Computed values (fresh arrays, closures) match nothing.
pub(crate) fn value_to_graph_id(ds: &Dataset, v: &Value) -> Option<TermId> {
    match v {
        Value::Term(t) => ds.active().dictionary().lookup(t),
        Value::Proxy(p) => {
            // Only a whole-array proxy denotes the stored node.
            let whole = ssdm_storage::ArrayProxy::whole(p.meta().clone());
            if whole.view() == p.view() {
                ds.active()
                    .dictionary()
                    .lookup(&Term::ArrayRef(p.array_id()))
            } else {
                None
            }
        }
        Value::Closure(_) => None,
    }
}

/// Evaluate a GRAPH plan: fixed name retargets the active graph; a
/// variable iterates the visible named graphs, binding it.
fn eval_graph_plan(
    ds: &mut Dataset,
    name: &TermPattern,
    inner: &Plan,
    input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    match name {
        TermPattern::Term(Term::Uri(u)) => {
            ds.active_graph = Some(u.clone());
            eval_plan(ds, inner, input)
        }
        TermPattern::Term(_) => Ok(Vec::new()),
        TermPattern::Var(v) => {
            let names = ds.iterable_graph_names();
            let mut out = Vec::new();
            for n in names {
                let gterm = Value::Term(Term::uri(n.clone()));
                let mut rows = Vec::new();
                for row in &input {
                    match row.get(v) {
                        Some(existing) if !existing.value_eq(&gterm) => {}
                        Some(_) => rows.push(row.clone()),
                        None => {
                            let mut r = row.clone();
                            r.insert(v.clone(), gterm.clone());
                            rows.push(r);
                        }
                    }
                }
                if rows.is_empty() {
                    continue;
                }
                ds.active_graph = Some(n);
                out.extend(eval_plan(ds, inner, rows)?);
            }
            Ok(out)
        }
    }
}

/// The plain unbound-capable variables appearing as whole subscripts
/// (`?a[?i, 2]` → ["i"]). Only bare `Index(Var)` subscripts enumerate.
fn subscript_vars(subs: &[SubscriptExpr]) -> Vec<&str> {
    subs.iter()
        .filter_map(|s| match s {
            SubscriptExpr::Index(Expr::Var(v)) => Some(v.as_str()),
            _ => None,
        })
        .collect()
}

/// Fan one solution out over all valid subscript combinations of a
/// dereference with unbound subscript variables (thesis §4.1.2):
/// `BIND (?a[?i] AS ?v)` with unbound `?i` yields one solution per
/// element, binding both `?i` (1-based) and `?v`.
fn enumerate_subscripts(
    ds: &mut Dataset,
    row: &Row,
    var: &str,
    base: &Expr,
    subscripts: &[SubscriptExpr],
) -> Result<Vec<Row>, QueryError> {
    let Some(basev) = expr::eval_expr(ds, row, base)? else {
        return Ok(vec![row.clone()]);
    };
    let Some(shape) = basev.array_shape() else {
        return Ok(vec![row.clone()]); // not an array: error -> unbound
    };
    if subscripts.len() > shape.len() {
        return Ok(vec![row.clone()]);
    }
    // Identify the enumerating dimensions. The same variable appearing
    // in several positions (e.g. the diagonal `?a[?i, ?i]`) enumerates
    // once; dereference failures skip invalid combinations.
    let mut enumerating: Vec<(usize, String)> = Vec::new();
    for (dim, s) in subscripts.iter().enumerate() {
        if let SubscriptExpr::Index(Expr::Var(v)) = s {
            if !row.contains_key(v) && !enumerating.iter().any(|(_, seen)| seen == v) {
                enumerating.push((dim, v.clone()));
            }
        }
    }
    debug_assert!(!enumerating.is_empty(), "caller checked");
    // Odometer over the enumerating dimensions (1-based subscripts).
    let sizes: Vec<usize> = enumerating.iter().map(|(d, _)| shape[*d]).collect();
    let count: usize = sizes.iter().product();
    let mut out = Vec::with_capacity(count);
    let mut ix = vec![1i64; enumerating.len()];
    for _ in 0..count {
        let mut extended = row.clone();
        for ((_, v), &i) in enumerating.iter().zip(&ix) {
            extended.insert(v.clone(), Value::integer(i));
        }
        if let Some(value) = expr::eval_expr(
            ds,
            &extended,
            &Expr::ArrayDeref {
                base: Box::new(base.clone()),
                subscripts: subscripts.to_vec(),
            },
        )? {
            match extended.get(var) {
                Some(existing) => {
                    if existing.value_eq(&value) {
                        out.push(extended);
                    }
                }
                None => {
                    extended.insert(var.to_string(), value);
                    out.push(extended);
                }
            }
        }
        for d in (0..ix.len()).rev() {
            ix[d] += 1;
            if ix[d] <= sizes[d] as i64 {
                break;
            }
            ix[d] = 1;
        }
    }
    Ok(out)
}

/// Fan a solution out over every result of a parameterized-view call
/// (DAPLEX bag semantics): `BIND (f(args) AS ?v)` yields one solution
/// per row of f's body, binding ?v to the first projected column.
fn bind_view_bag(
    ds: &mut Dataset,
    row: &Row,
    var: &str,
    def: &std::sync::Arc<FunctionDef>,
    args: &[Expr],
) -> Result<Vec<Row>, QueryError> {
    if def.params.len() != args.len() {
        return Err(QueryError::Eval(format!(
            "function {} expects {} argument(s), got {}",
            def.name,
            def.params.len(),
            args.len()
        )));
    }
    let mut initial = Row::new();
    for (p, a) in def.params.iter().zip(args) {
        match expr::eval_expr(ds, row, a)? {
            Some(v) => {
                initial.insert(p.clone(), v);
            }
            // An erroneous argument leaves the BIND unbound.
            None => return Ok(vec![row.clone()]),
        }
    }
    let (_, results) = select_solutions(ds, &def.body, initial)?;
    if results.is_empty() {
        // No solutions: the call errors, the variable stays unbound.
        return Ok(vec![row.clone()]);
    }
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        let Some(v) = r.into_iter().next().flatten() else {
            continue;
        };
        let mut extended = row.clone();
        match extended.get(var) {
            Some(existing) => {
                if existing.value_eq(&v) {
                    out.push(extended);
                }
            }
            None => {
                extended.insert(var.to_string(), v);
                out.push(extended);
            }
        }
    }
    Ok(out)
}
