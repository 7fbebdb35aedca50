//! The bytes of every sample a session builds, pinned by
//! `tests/golden/sample_hashes.txt`: uniform samples drawn without and
//! with replacement, and stratified samples on a string, an integer, a
//! boolean and a float key, over the benchmark's `sessions` table and a
//! hand-built table with NULLs in every type. Each line hashes one
//! sample's partitions (lengths, values, validity, dictionary strings,
//! codes) and its `SampleMeta`, strata included. A change to how a
//! sample is gathered must leave the file unedited.

mod common;

use reliable_aqp::storage::{Batch, Column, DataType, Field, Schema, Table};
use reliable_aqp::workload::conviva_sessions_table;
use reliable_aqp::{AqpSession, SessionConfig};

/// FNV-1a, 64 bits: the same bytes give the same hash on every platform.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn hash_column(h: &mut Fnv, column: &Column) {
    let validity = match column {
        Column::Int { values, validity } => {
            h.word(0);
            values.iter().for_each(|&x| h.word(x as u64));
            validity
        }
        Column::Float { values, validity } => {
            h.word(1);
            values.iter().for_each(|x| h.word(x.to_bits()));
            validity
        }
        Column::Bool { values, validity } => {
            h.word(2);
            values.iter().for_each(|&b| h.word(u64::from(b)));
            validity
        }
        Column::Str { dict, codes, validity } => {
            h.word(3);
            h.word(dict.len() as u64);
            for s in dict {
                h.word(s.len() as u64);
                h.bytes(s.as_bytes());
            }
            codes.iter().for_each(|&c| h.word(u64::from(c)));
            validity
        }
    };
    match validity {
        None => h.word(0),
        Some(mask) => {
            h.word(1);
            mask.iter().for_each(|&v| h.word(u64::from(v)));
        }
    }
}

/// One line per sample of `table`, smallest first.
fn sample_lines(s: &AqpSession, table: &str) -> String {
    s.catalog()
        .with_samples(table, |set| {
            Ok(set
                .samples()
                .iter()
                .map(|sample| {
                    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
                    h.bytes(format!("{:?}", sample.meta).as_bytes());
                    let parts = sample.data.partitions();
                    for p in parts {
                        h.word(p.num_rows() as u64);
                        p.batch().columns().iter().for_each(|c| hash_column(&mut h, c));
                    }
                    let lens: Vec<usize> = parts.iter().map(|p| p.num_rows()).collect();
                    let strata = sample.meta.strata.as_ref().map_or(0, |st| st.groups.len());
                    format!(
                        "{} {:?} rows={} strata={strata} parts={lens:?} {:016x}\n",
                        sample.data.name(),
                        sample.meta.strategy,
                        sample.meta.rows,
                        h.0
                    )
                })
                .collect())
        })
        .unwrap()
}

/// 600 rows in 7 partitions, NULLs in every column. The string key's
/// dictionary holds `x` twice and an entry no row uses, and `'NULL'`
/// sits next to NULL; the float key holds two NaN payloads, -0.0 and
/// 0.0; every NULL cell's placeholder is something other than zero.
fn nullable_table() -> Table {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let rows = 600;
    let (mut s, mut i, mut b, mut f, mut x) = (vec![], vec![], vec![], vec![], vec![]);
    let mut masks = [vec![], vec![], vec![], vec![]];
    for r in 0..rows {
        let null = |mask: &mut Vec<bool>, draw: u64| {
            mask.push(draw != 0);
            draw == 0
        };
        s.push(if null(&mut masks[0], next(9)) { 2 } else { [0, 1, 2, 3, 0][next(5) as usize] });
        i.push(if null(&mut masks[1], next(7)) { 99 } else { next(6) as i64 - 2 });
        b.push(if null(&mut masks[2], next(5)) { true } else { next(2) == 1 });
        let floats = [f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001), -0.0, 0.0, 1.5, -2.25];
        f.push(if null(&mut masks[3], next(8)) { 7.5 } else { floats[next(6) as usize] });
        x.push(r as f64 * 0.5 + next(100) as f64);
    }
    let [ms, mi, mb, mf] = masks;
    let schema = Schema::new(vec![
        Field::new("s", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("b", DataType::Bool),
        Field::new("f", DataType::Float),
        Field::new("x", DataType::Float),
    ])
    .unwrap();
    let dict = ["x", "NULL", "y", "x", "unused"].map(String::from).to_vec();
    let columns = vec![
        Column::Str { dict, codes: s, validity: Some(ms) },
        Column::Int { values: i, validity: Some(mi) },
        Column::Bool { values: b, validity: Some(mb) },
        Column::Float { values: f, validity: Some(mf) },
        Column::from_f64s(x),
    ];
    Table::from_batch("nullable", Batch::new(schema, columns).unwrap(), 7).unwrap()
}

#[test]
fn every_sample_a_session_builds_matches_sample_hashes() {
    let s = AqpSession::new(SessionConfig::default());
    s.register_table(conviva_sessions_table(3_000, 4, 5)).unwrap();
    s.build_samples("sessions", &[400, 1_200], 1).unwrap();
    s.build_samples("sessions", &[5_000], 2).unwrap();
    for (column, per_stratum) in [("city", 60), ("user_id", 5), ("is_mobile", 200)] {
        s.build_stratified_sample("sessions", column, per_stratum, 3).unwrap();
    }
    s.register_table(nullable_table()).unwrap();
    s.build_samples("nullable", &[90, 1_000], 4).unwrap();
    for (column, per_stratum) in [("s", 20), ("i", 15), ("b", 40), ("f", 12)] {
        s.build_stratified_sample("nullable", column, per_stratum, 5).unwrap();
    }
    let got = sample_lines(&s, "sessions") + &sample_lines(&s, "nullable");
    common::assert_matches_golden("sample_hashes.txt", &got);
}
