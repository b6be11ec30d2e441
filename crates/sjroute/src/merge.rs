//! Scatter-gather result merging.
//!
//! A cross-shard query is split per value dimension: every shard answers
//! `[domains] -> [its values]` over the datasets it holds, and the router
//! recombines the partial tables with a **natural join on the shared
//! domain columns** — the same composition the single-process engine
//! performs internally when it joins per-value derivations. The merged
//! table is then canonicalized (domain columns first, then values, rows
//! sorted), which both gives clients a deterministic order regardless of
//! which worker answered first and makes "byte-identical to
//! single-process execution" a string comparison.

use std::collections::HashMap;

use sjserve::protocol::QueryResult;

/// Natural-join a list of partial results into one table. Partials must
/// pairwise share at least one column (the query's domains guarantee
/// this: every partial carries all of them).
pub fn natural_join(mut parts: Vec<QueryResult>) -> Result<QueryResult, String> {
    if parts.is_empty() {
        return Err("nothing to merge".into());
    }
    let mut acc = parts.remove(0);
    for part in parts {
        acc = join2(acc, part)?;
    }
    Ok(acc)
}

fn join2(a: QueryResult, b: QueryResult) -> Result<QueryResult, String> {
    let shared: Vec<(usize, usize)> = a
        .columns
        .iter()
        .enumerate()
        .filter_map(|(i, col)| b.columns.iter().position(|c| c == col).map(|j| (i, j)))
        .collect();
    if shared.is_empty() {
        return Err(format!(
            "partial results share no columns ({:?} vs {:?})",
            a.columns, b.columns
        ));
    }
    let b_extra: Vec<usize> = (0..b.columns.len())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();

    let mut index: HashMap<Vec<&str>, Vec<usize>> = HashMap::new();
    for (ri, row) in b.rows.iter().enumerate() {
        let key: Vec<&str> = shared.iter().map(|&(_, j)| row[j].as_str()).collect();
        index.entry(key).or_default().push(ri);
    }
    let mut rows = Vec::new();
    for arow in a.rows.iter() {
        let key: Vec<&str> = shared.iter().map(|&(i, _)| arow[i].as_str()).collect();
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                let mut row = arow.clone();
                row.extend(b_extra.iter().map(|&j| b.rows[ri][j].clone()));
                rows.push(row);
            }
        }
    }

    let mut columns = a.columns;
    columns.extend(b_extra.iter().map(|&j| b.columns[j].clone()));
    Ok(QueryResult {
        columns,
        row_count: rows.len(),
        rows: rows.into(),
        truncated: a.truncated || b.truncated,
        plan_cache_hit: a.plan_cache_hit && b.plan_cache_hit,
        result_cache_hit: a.result_cache_hit && b.result_cache_hit,
        elapsed_ms: a.elapsed_ms.max(b.elapsed_ms),
        // Per-worker engine metrics do not sum meaningfully across
        // processes; the router reports its own route latency instead.
        engine_metrics: None,
    })
}

/// Put a result in canonical form: columns reordered to `preferred`
/// order (columns not listed follow alphabetically), rows sorted
/// lexicographically. Idempotent, and independent of which worker
/// produced which column — two executions of the same query canonicalize
/// to the same bytes.
pub fn canonicalize(result: &mut QueryResult, preferred: &[String]) {
    let mut order: Vec<usize> = Vec::new();
    for name in preferred {
        if let Some(i) = result.columns.iter().position(|c| c == name) {
            if !order.contains(&i) {
                order.push(i);
            }
        }
    }
    let mut rest: Vec<usize> = (0..result.columns.len())
        .filter(|i| !order.contains(i))
        .collect();
    rest.sort_by(|&x, &y| result.columns[x].cmp(&result.columns[y]));
    order.extend(rest);

    result.columns = order.iter().map(|&i| result.columns[i].clone()).collect();
    let mut rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| order.iter().map(|&i| row[i].clone()).collect())
        .collect();
    rows.sort();
    result.rows = rows.into();
}

/// Render a (canonicalized) result as CSV text — the byte-identity
/// witness the shard bench and tests compare across deployments.
pub fn canonical_csv(result: &QueryResult) -> String {
    let mut out = result.columns.join(",");
    out.push('\n');
    for row in result.rows.iter() {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(columns: &[&str], rows: &[&[&str]]) -> QueryResult {
        QueryResult {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            row_count: rows.len(),
            truncated: false,
            plan_cache_hit: false,
            result_cache_hit: false,
            elapsed_ms: 1.0,
            engine_metrics: None,
        }
    }

    #[test]
    fn joins_on_shared_domain_columns() {
        let a = table(
            &["job", "time", "heat"],
            &[&["1001", "60", "2.5"], &["1002", "60", "3.0"]],
        );
        let b = table(
            &["job", "time", "power"],
            &[&["1001", "60", "90"], &["1003", "60", "85"]],
        );
        let merged = natural_join(vec![a, b]).unwrap();
        assert_eq!(merged.columns, vec!["job", "time", "heat", "power"]);
        assert_eq!(*merged.rows, vec![vec!["1001", "60", "2.5", "90"]]);
        assert_eq!(merged.row_count, 1);
    }

    #[test]
    fn join_multiplies_on_duplicate_keys() {
        let a = table(&["k", "x"], &[&["1", "a"]]);
        let b = table(&["k", "y"], &[&["1", "p"], &["1", "q"]]);
        let merged = natural_join(vec![a, b]).unwrap();
        assert_eq!(merged.rows.len(), 2);
    }

    #[test]
    fn disjoint_columns_are_an_error_and_single_part_passes_through() {
        let a = table(&["x"], &[&["1"]]);
        let b = table(&["y"], &[&["2"]]);
        assert!(natural_join(vec![a.clone(), b]).is_err());
        assert_eq!(natural_join(vec![a.clone()]).unwrap(), a);
        assert!(natural_join(vec![]).is_err());
    }

    #[test]
    fn canonicalize_is_deterministic_across_column_and_row_order() {
        let mut a = table(
            &["heat", "job", "time"],
            &[&["3.0", "1002", "60"], &["2.5", "1001", "60"]],
        );
        let mut b = table(
            &["time", "heat", "job"],
            &[&["60", "2.5", "1001"], &["60", "3.0", "1002"]],
        );
        let preferred = vec!["job".to_string(), "time".to_string(), "heat".to_string()];
        canonicalize(&mut a, &preferred);
        canonicalize(&mut b, &preferred);
        assert_eq!(canonical_csv(&a), canonical_csv(&b));
        assert_eq!(a.columns, vec!["job", "time", "heat"]);
        assert_eq!(a.rows[0], vec!["1001", "60", "2.5"]);
    }

    #[test]
    fn canonicalize_appends_unlisted_columns_alphabetically() {
        let mut t = table(&["z", "job", "a"], &[&["1", "2", "3"]]);
        canonicalize(&mut t, &["job".to_string()]);
        assert_eq!(t.columns, vec!["job", "a", "z"]);
        assert_eq!(t.rows[0], vec!["2", "3", "1"]);
    }

    #[test]
    fn merged_truncation_flag_is_sticky() {
        let mut a = table(&["k", "x"], &[&["1", "a"]]);
        a.truncated = true;
        let b = table(&["k", "y"], &[&["1", "p"]]);
        assert!(natural_join(vec![a, b]).unwrap().truncated);
    }
}
