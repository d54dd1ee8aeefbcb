//! The JOB MATCHER's predictive model.
//!
//! Stands in for YourJourney's trained matching/ranking models (§II): a
//! transparent linear scorer over title affinity (with taxonomy-aware
//! partial credit), location, skills overlap, and seniority fit. Being
//! deterministic, its behavior is exactly reproducible in tests and benches.

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One scored job for a profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMatch {
    /// The job row (JSON object).
    pub job: Value,
    /// Match score in `[0, 1]`.
    pub score: f64,
    /// Human-readable score breakdown (the paper's explanation modules).
    pub explanation: String,
}

fn text_of<'v>(obj: &'v Value, key: &str) -> Option<&'v str> {
    obj.get(key).and_then(Value::as_str)
}

fn list_of(obj: &Value, key: &str) -> Vec<String> {
    match obj.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_lowercase)
            .collect(),
        Some(Value::String(s)) => s
            .split(',')
            .map(|t| t.trim().to_lowercase())
            .filter(|t| !t.is_empty())
            .collect(),
        _ => Vec::new(),
    }
}

/// Scores one job against a profile. `related_titles` (e.g. from the
/// taxonomy) earn partial title credit.
pub fn match_score(profile: &Value, job: &Value, related_titles: &[String]) -> (f64, String) {
    let mut score = 0.0;
    let mut parts = Vec::new();

    // Title: exact 0.4, related 0.25.
    let want = text_of(profile, "title").unwrap_or_default().to_lowercase();
    let have = text_of(job, "title").unwrap_or_default().to_lowercase();
    if !want.is_empty() && want == have {
        score += 0.4;
        parts.push("exact title match (+0.40)".to_string());
    } else if related_titles.iter().any(|t| t.to_lowercase() == have) {
        score += 0.25;
        parts.push(format!("related title {have} (+0.25)"));
    }

    // Location: same city 0.3, remote 0.2.
    let want_city = text_of(profile, "city").unwrap_or_default().to_lowercase();
    let job_city = text_of(job, "city").unwrap_or_default().to_lowercase();
    if !want_city.is_empty() && want_city == job_city {
        score += 0.3;
        parts.push("same city (+0.30)".to_string());
    } else if job.get("remote").and_then(Value::as_bool) == Some(true) {
        score += 0.2;
        parts.push("remote role (+0.20)".to_string());
    }

    // Skills: up to 0.2 by overlap fraction with the role's expectations
    // (approximated by the profile's own skills appearing in the job title
    // domain; without job skill data, overlap with the profile's declared
    // skills count is a proxy for completeness).
    let skills = list_of(profile, "skills");
    if !skills.is_empty() {
        let credit = 0.2 * (skills.len().min(5) as f64 / 5.0);
        score += credit;
        parts.push(format!("{} skills (+{credit:.2})", skills.len()));
    }

    // Seniority fit: up to 0.1 (peaks at 5+ years).
    let years = profile
        .get("experience_years")
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let credit = 0.1 * (years.min(5) as f64 / 5.0);
    if credit > 0.0 {
        score += credit;
        parts.push(format!("{years}y experience (+{credit:.2})"));
    }

    (score.min(1.0), parts.join(", "))
}

/// Ranks jobs for a profile, best first; ties break by job id for
/// determinism. `limit` caps the result. Sorts borrowed rows and copies
/// only the `limit` winners.
pub fn rank_jobs(
    profile: &Value,
    jobs: &[Value],
    related_titles: &[String],
    limit: usize,
) -> Vec<JobMatch> {
    let mut scored: Vec<(&Value, f64, String)> = jobs
        .iter()
        .map(|job| {
            let (score, explanation) = match_score(profile, job, related_titles);
            (job, score, explanation)
        })
        .collect();
    scored.sort_by(|(a, sa, _), (b, sb, _)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| id_of(a).cmp(&id_of(b)))
    });
    scored
        .into_iter()
        .take(limit)
        .map(|(job, score, explanation)| JobMatch {
            job: job.clone(),
            score,
            explanation,
        })
        .collect()
}

fn id_of(job: &Value) -> i64 {
    job.get("id").and_then(Value::as_i64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::json;

    fn profile() -> Value {
        json!({
            "title": "data scientist",
            "city": "san francisco",
            "skills": ["python", "sql", "statistics"],
            "experience_years": 6,
        })
    }

    #[test]
    fn exact_title_and_city_score_highest() {
        let job = json!({"id": 1, "title": "data scientist", "city": "san francisco"});
        let (score, explanation) = match_score(&profile(), &job, &[]);
        assert!(score > 0.8);
        assert!(explanation.contains("exact title"));
        assert!(explanation.contains("same city"));
    }

    #[test]
    fn related_title_gets_partial_credit() {
        let related = vec!["machine learning engineer".to_string()];
        let job = json!({"id": 2, "title": "machine learning engineer", "city": "san francisco"});
        let (with_rel, _) = match_score(&profile(), &job, &related);
        let (without_rel, _) = match_score(&profile(), &job, &[]);
        assert!(with_rel > without_rel);
    }

    #[test]
    fn remote_compensates_for_location() {
        let remote = json!({"id": 3, "title": "data scientist", "city": "austin", "remote": true});
        let onsite = json!({"id": 4, "title": "data scientist", "city": "austin", "remote": false});
        let (r, _) = match_score(&profile(), &remote, &[]);
        let (o, _) = match_score(&profile(), &onsite, &[]);
        assert!(r > o);
    }

    #[test]
    fn skills_string_form_parses() {
        let p = json!({"title": "x", "skills": "python, sql"});
        let job = json!({"id": 5, "title": "y", "city": "z"});
        let (score, explanation) = match_score(&p, &job, &[]);
        assert!(score > 0.0);
        assert!(explanation.contains("2 skills"));
    }

    #[test]
    fn rank_orders_and_limits() {
        let jobs = vec![
            json!({"id": 1, "title": "recruiter", "city": "boston"}),
            json!({"id": 2, "title": "data scientist", "city": "san francisco"}),
            json!({"id": 3, "title": "data scientist", "city": "austin"}),
        ];
        let ranked = rank_jobs(&profile(), &jobs, &[], 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].job["id"], json!(2));
        assert_eq!(ranked[1].job["id"], json!(3));
    }

    #[test]
    fn ties_break_by_id() {
        let jobs = vec![
            json!({"id": 9, "title": "data scientist", "city": "san francisco"}),
            json!({"id": 3, "title": "data scientist", "city": "san francisco"}),
        ];
        let ranked = rank_jobs(&profile(), &jobs, &[], 10);
        assert_eq!(ranked[0].job["id"], json!(3));
    }

    /// Reference ranking: score and clone every job, sort, truncate.
    fn rank_all_cloned(
        profile: &Value,
        jobs: &[Value],
        related: &[String],
        limit: usize,
    ) -> Vec<JobMatch> {
        let mut scored: Vec<JobMatch> = jobs
            .iter()
            .map(|job| {
                let (score, explanation) = match_score(profile, job, related);
                JobMatch {
                    job: job.clone(),
                    score,
                    explanation,
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let ida = a.job.get("id").and_then(Value::as_i64).unwrap_or(0);
                    let idb = b.job.get("id").and_then(Value::as_i64).unwrap_or(0);
                    ida.cmp(&idb)
                })
        });
        scored.truncate(limit);
        scored
    }

    /// Few titles, cities and ids, so scores and ids tie often; some rows
    /// have no id at all. `seq` tells otherwise-equal rows apart.
    fn arb_job() -> impl Strategy<Value = Value> {
        (0u8..4, 0u8..4, 0i64..6, any::<bool>(), any::<bool>()).prop_map(
            |(title, city, id, remote, has_id)| {
                let titles = ["data scientist", "recruiter", "nurse", "ml engineer"];
                let cities = ["san francisco", "austin", "boston", "remote"];
                let mut job = json!({
                    "title": titles[title as usize],
                    "city": cities[city as usize],
                    "remote": remote,
                });
                if has_id {
                    job["id"] = json!(id);
                }
                job
            },
        )
    }

    proptest! {
        #[test]
        fn borrowed_ranking_equals_clone_all_sort(
            jobs in prop::collection::vec(arb_job(), 0..40),
            limit in 0usize..12,
            with_related in any::<bool>(),
        ) {
            let jobs: Vec<Value> = jobs
                .into_iter()
                .enumerate()
                .map(|(seq, mut job)| {
                    job["seq"] = json!(seq);
                    job
                })
                .collect();
            let related = if with_related {
                vec!["ml engineer".to_string()]
            } else {
                Vec::new()
            };
            prop_assert_eq!(
                rank_jobs(&profile(), &jobs, &related, limit),
                rank_all_cloned(&profile(), &jobs, &related, limit)
            );
        }
    }

    #[test]
    fn empty_profile_scores_low_not_panicking() {
        let job = json!({"id": 1, "title": "data scientist", "city": "sf"});
        let (score, _) = match_score(&json!({}), &job, &[]);
        assert!(score < 0.3);
    }

    #[test]
    fn score_is_capped_at_one() {
        let job =
            json!({"id": 1, "title": "data scientist", "city": "san francisco", "remote": true});
        let (score, _) = match_score(&profile(), &job, &[]);
        assert!(score <= 1.0);
    }
}
