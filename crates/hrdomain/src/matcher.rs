//! The JOB MATCHER's predictive model.
//!
//! Stands in for YourJourney's trained matching/ranking models (§II): a
//! transparent linear scorer over title affinity (with taxonomy-aware
//! partial credit), location, skills overlap, and seniority fit. Being
//! deterministic, its behavior is exactly reproducible in tests and benches.
//!
//! Jobs arrive as JSON objects ([`rank_jobs`]) or, from a data plan's SQL
//! operator, as a [`RowBatch`] ([`rank_rows`]) that is read by column index
//! and rendered as JSON only for the winners.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_datastore::{Datum, RowBatch};

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

/// Ranks jobs for a profile, best first; ties break by job id, then by
/// input position, for determinism. `limit` caps the result.
///
/// Scores are exactly `match_score`'s: the profile-derived values are
/// computed once per call, job fields are compared without copying them,
/// and each row's credits are added in `match_score`'s order. Only the
/// `limit` winners are cloned and given an explanation.
pub fn rank_jobs(
    profile: &Value,
    jobs: &[Value],
    related_titles: &[String],
    limit: usize,
) -> Vec<JobMatch> {
    let terms = ProfileTerms::new(profile, related_titles);
    let scored = jobs
        .iter()
        .enumerate()
        .map(|(pos, job)| {
            let text = |key| text_of(job, key).unwrap_or_default();
            let remote = job.get("remote").and_then(Value::as_bool) == Some(true);
            (
                terms.score(text("title"), text("city"), remote),
                id_of(job),
                pos,
            )
        })
        .collect();
    winners(
        scored,
        limit,
        |pos| jobs[pos].clone(),
        profile,
        related_titles,
    )
}

/// [`rank_jobs`] over a row batch: the same winners, in the same order,
/// with bit-identical scores, the same explanations and the same job
/// objects as ranking the array of objects `jobs` renders to. Rows are
/// scored by column index (`id`, `title`, `city`, `remote`, the last of
/// duplicate names, as the rendered object keeps it), and only the `limit`
/// winners are rendered as JSON.
pub fn rank_rows(
    profile: &Value,
    jobs: &RowBatch,
    related_titles: &[String],
    limit: usize,
) -> Vec<JobMatch> {
    let terms = ProfileTerms::new(profile, related_titles);
    let [id, title, city, remote] = ["id", "title", "city", "remote"].map(|c| jobs.column(c));
    let scored = jobs
        .rows()
        .iter()
        .enumerate()
        .map(|(pos, row)| {
            let text = |col: Option<usize>| col.and_then(|c| row[c].as_str()).unwrap_or_default();
            let remote = remote.and_then(|c| row[c].as_bool()) == Some(true);
            // As a JSON object, only an Int cell reads back as an `i64`.
            let id = match id.map(|c| &row[c]) {
                Some(Datum::Int(i)) => *i,
                _ => 0,
            };
            (terms.score(text(title), text(city), remote), id, pos)
        })
        .collect();
    winners(
        scored,
        limit,
        |pos| jobs.row_json(pos),
        profile,
        related_titles,
    )
}

/// The `limit` best of `(score, id, position)` triples, best first: score
/// descending, then id, then input position, the order a stable sort by
/// (score, id) leaves the rows in. Each winner's job object comes from
/// `job`, and its explanation from `match_score`.
fn winners(
    mut scored: Vec<(f64, i64, usize)>,
    limit: usize,
    job: impl Fn(usize) -> Value,
    profile: &Value,
    related_titles: &[String],
) -> Vec<JobMatch> {
    let order = |a: &(f64, i64, usize), b: &(f64, i64, usize)| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    };
    if limit < scored.len() {
        if limit == 0 {
            return Vec::new();
        }
        scored.select_nth_unstable_by(limit - 1, order);
        scored.truncate(limit);
    }
    scored.sort_unstable_by(order);
    scored
        .into_iter()
        .map(|(score, _, pos)| {
            let job = job(pos);
            let (full, explanation) = match_score(profile, &job, related_titles);
            debug_assert_eq!(full.to_bits(), score.to_bits());
            JobMatch {
                job,
                score,
                explanation,
            }
        })
        .collect()
}

/// The profile's side of `match_score`, computed once per ranking.
struct ProfileTerms {
    /// Lowercased wanted title and city (empty when absent).
    title: String,
    city: String,
    /// Lowercased related titles.
    related: Vec<String>,
    /// Skills credit, when the profile lists any skills.
    skills: Option<f64>,
    /// Seniority credit, when positive.
    seniority: Option<f64>,
}

impl ProfileTerms {
    fn new(profile: &Value, related_titles: &[String]) -> Self {
        let lower = |key| text_of(profile, key).unwrap_or_default().to_lowercase();
        let skills = list_of(profile, "skills").len();
        let years = profile
            .get("experience_years")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        let seniority = 0.1 * (years.min(5) as f64 / 5.0);
        ProfileTerms {
            title: lower("title"),
            city: lower("city"),
            related: related_titles.iter().map(|t| t.to_lowercase()).collect(),
            skills: (skills > 0).then(|| 0.2 * (skills.min(5) as f64 / 5.0)),
            seniority: (seniority > 0.0).then_some(seniority),
        }
    }

    /// `match_score(profile, job, related).0` for a job with this title
    /// and city (empty when absent or not text) that is `remote` when its
    /// `remote` field is `true`, adding the same credits in the same order.
    fn score(&self, title: &str, city: &str, remote: bool) -> f64 {
        let mut score = 0.0;
        if !self.title.is_empty() && equals_lowercased(&self.title, title) {
            score += 0.4;
        } else if self.related.iter().any(|t| equals_lowercased(t, title)) {
            score += 0.25;
        }
        if !self.city.is_empty() && equals_lowercased(&self.city, city) {
            score += 0.3;
        } else if remote {
            score += 0.2;
        }
        if let Some(credit) = self.skills {
            score += credit;
        }
        if let Some(credit) = self.seniority {
            score += credit;
        }
        score.min(1.0)
    }
}

/// `lower == text.to_lowercase()`. ASCII text is compared byte by byte in
/// place; other text is lowercased, so Unicode case rules apply unchanged.
fn equals_lowercased(lower: &str, text: &str) -> bool {
    if text.is_ascii() {
        lower.len() == text.len()
            && lower
                .bytes()
                .zip(text.bytes())
                .all(|(l, t)| l == t.to_ascii_lowercase())
    } else {
        lower == text.to_lowercase()
    }
}

fn id_of(job: &Value) -> i64 {
    job.get("id").and_then(Value::as_i64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
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

    /// The ranking as it was before `rank_jobs` scored rows in place:
    /// `match_score` on every row, a stable sort of all rows, the first
    /// `limit` cloned.
    fn rank_jobs_oracle(
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

    /// Titles and cities in mixed case, with non-ASCII letters whose
    /// lowercase differs in length or depends on context (`İ`, final `Σ`).
    const TEXTS: &[&str] = &[
        "data scientist",
        "Data Scientist",
        "DATA SCIENTIST",
        "ml engineer",
        "ML Engineer",
        "Nurse",
        "san francisco",
        "San Francisco",
        "SAN FRANCISCO",
        "ΟΔΟΣ",
        "οδος",
        "οδοσ",
        "İzmir",
        "i̇zmir",
        "izmir",
        "École",
        "école",
        "ÉCOLE",
        "",
    ];

    fn arb_text(rng: &mut TestRng) -> Value {
        json!(TEXTS[rng.below(TEXTS.len() as u64) as usize])
    }

    /// A field that is absent, not a string, or one of `TEXTS`.
    fn set_text(rng: &mut TestRng, obj: &mut Value, key: &str) {
        match rng.below(6) {
            0 => {}
            1 => obj[key] = json!(7),
            _ => obj[key] = arb_text(rng),
        }
    }

    fn arb_profile(rng: &mut TestRng) -> Value {
        let mut profile = json!({});
        set_text(rng, &mut profile, "title");
        set_text(rng, &mut profile, "city");
        let skills = ["python", "SQL", "Statistics", "É", " ", ""];
        match rng.below(4) {
            0 => {}
            1 => {
                let list: Vec<Value> = (0..rng.below(8))
                    .map(|i| match i % 4 {
                        3 => json!(3),
                        _ => json!(skills[rng.below(skills.len() as u64) as usize]),
                    })
                    .collect();
                profile["skills"] = Value::Array(list);
            }
            2 => {
                let list: Vec<&str> = (0..rng.below(8))
                    .map(|_| skills[rng.below(skills.len() as u64) as usize])
                    .collect();
                profile["skills"] = json!(list.join(","));
            }
            _ => profile["skills"] = json!(true),
        }
        match rng.below(4) {
            0 => {}
            1 => profile["experience_years"] = json!(2.5),
            _ => profile["experience_years"] = json!(rng.below(12) as i64 - 3),
        }
        profile
    }

    /// Rows with missing or non-string fields, few ids (duplicates, some
    /// absent or not integers) and `seq` to tell equal rows apart.
    fn arb_jobs(rng: &mut TestRng) -> Vec<Value> {
        (0..rng.below(30))
            .map(|seq| {
                let mut job = json!({"seq": seq});
                match rng.below(5) {
                    0 => {}
                    1 => job["id"] = json!("x"),
                    _ => job["id"] = json!(rng.below(6) as i64 - 1),
                }
                set_text(rng, &mut job, "title");
                set_text(rng, &mut job, "city");
                match rng.below(4) {
                    0 => {}
                    1 => job["remote"] = json!("yes"),
                    _ => job["remote"] = json!(rng.chance(0.5)),
                }
                job
            })
            .collect()
    }

    /// A profile, related titles, job rows and a limit: 0, 1, 10, more
    /// than the rows, or anything in between.
    struct ArbRanking;

    impl Strategy for ArbRanking {
        type Value = (Value, Vec<String>, Vec<Value>, usize);
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let profile = arb_profile(rng);
            let related = (0..rng.below(4))
                .map(|_| TEXTS[rng.below(TEXTS.len() as u64) as usize].to_string())
                .collect();
            let jobs = arb_jobs(rng);
            let limit = match rng.below(5) {
                0 => 0,
                1 => 1,
                2 => 10,
                3 => jobs.len() + 1 + rng.below(3) as usize,
                _ => rng.below(jobs.len() as u64 + 1) as usize,
            };
            (profile, related, jobs, limit)
        }
    }

    /// A ranking with each score as its bits, so `-0.0` and `0.0` differ.
    fn bitwise(ranked: Vec<JobMatch>) -> Vec<(Value, u64, String)> {
        ranked
            .into_iter()
            .map(|m| (m.job, m.score.to_bits(), m.explanation))
            .collect()
    }

    proptest! {
        #[test]
        fn rank_jobs_equals_the_sort_all_oracle(
            (profile, related, jobs, limit) in ArbRanking,
        ) {
            prop_assert_eq!(
                bitwise(rank_jobs(&profile, &jobs, &related, limit)),
                bitwise(rank_jobs_oracle(&profile, &jobs, &related, limit))
            );
        }
    }

    /// Column names with repeats, so a later duplicate must win as it does
    /// in the rendered object.
    const COLUMNS: &[&str] = &["id", "title", "city", "remote", "seq", "title", "id"];

    /// A cell of any type: text from `TEXTS`, ints with duplicates, floats
    /// (whole ones render as `n.0`, not as an id), bools and NULLs.
    fn arb_datum(rng: &mut TestRng) -> Datum {
        match rng.below(6) {
            0 => Datum::Null,
            1 | 2 => Datum::Text(TEXTS[rng.below(TEXTS.len() as u64) as usize].to_string()),
            3 => Datum::Int(rng.below(6) as i64 - 1),
            4 => Datum::Float([2.0, 0.5, f64::NAN][rng.below(3) as usize]),
            _ => Datum::Bool(rng.chance(0.5)),
        }
    }

    /// A profile, related titles, a batch of up to 30 rows under up to 6
    /// columns drawn from `COLUMNS`, and a limit.
    struct ArbBatchRanking;

    impl Strategy for ArbBatchRanking {
        type Value = (Value, Vec<String>, RowBatch, usize);
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let profile = arb_profile(rng);
            let related = (0..rng.below(4))
                .map(|_| TEXTS[rng.below(TEXTS.len() as u64) as usize].to_string())
                .collect();
            let columns: Vec<String> = (0..rng.below(7))
                .map(|_| COLUMNS[rng.below(COLUMNS.len() as u64) as usize].to_string())
                .collect();
            let rows = (0..rng.below(31))
                .map(|_| columns.iter().map(|_| arb_datum(rng)).collect())
                .collect();
            let batch = RowBatch::new(columns, rows);
            let limit = match rng.below(4) {
                0 => 0,
                1 => 10,
                2 => batch.len() + 1,
                _ => rng.below(batch.len() as u64 + 1) as usize,
            };
            (profile, related, batch, limit)
        }
    }

    proptest! {
        #[test]
        fn rank_rows_equals_rank_jobs_on_the_rendered_rows(
            (profile, related, batch, limit) in ArbBatchRanking,
        ) {
            let rendered = batch.to_json();
            prop_assert_eq!(
                bitwise(rank_rows(&profile, &batch, &related, limit)),
                bitwise(rank_jobs(&profile, rendered.as_array().unwrap(), &related, limit))
            );
        }
    }

    #[test]
    fn equals_lowercased_follows_to_lowercase() {
        for lower in TEXTS {
            for text in TEXTS {
                assert_eq!(
                    equals_lowercased(lower, text),
                    *lower == text.to_lowercase(),
                    "{lower:?} vs {text:?}"
                );
            }
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
