//! Error-path coverage for `udt_tree::persist`.
//!
//! The serving registry trusts `persist::load` to reject anything that
//! would make `FlatTree` invariants unsound before a model goes live, so
//! the failure modes are pinned here as integration tests: truncation at
//! every prefix length, targeted corruption of v2 arenas, unknown or
//! malformed version tags, footer damage, and the refusal of pre-arena
//! (`{"root": …}`) files.

use udt_data::toy;
use udt_tree::persist::{from_json, to_json, to_json_v3};
use udt_tree::{Algorithm, DecisionTree, TreeBuilder, TreeError, UdtConfig};

fn trained() -> DecisionTree {
    TreeBuilder::new(
        UdtConfig::new(Algorithm::UdtEs)
            .with_postprune(false)
            .with_min_node_weight(0.0),
    )
    .build(&toy::table1_dataset().expect("toy data is valid"))
    .expect("toy build succeeds")
    .tree
}

#[test]
fn every_truncation_of_a_v2_model_errors_cleanly() {
    // No prefix of a valid model may panic or — worse — deserialise into
    // a different valid model. (The empty prefix and the full string are
    // the boundary cases; the full string must load.)
    let json = to_json(&trained()).unwrap();
    for len in 0..json.len() {
        if !json.is_char_boundary(len) {
            continue;
        }
        assert!(
            from_json(&json[..len]).is_err(),
            "prefix of {len} bytes was accepted"
        );
    }
    assert!(from_json(&json).is_ok());
}

#[test]
fn corrupt_v2_arenas_are_rejected_with_a_model_error() {
    let tree = trained();
    let json = to_json(&tree).unwrap();

    // Structural corruption: a child index pointing past the arena.
    let dangling = json.replacen("\"children\":[", "\"children\":[4096,", 1);
    assert_ne!(dangling, json);
    assert!(from_json(&dangling).is_err());

    // Metadata corruption: class-name count no longer matches the arena.
    let extra_class = json.replacen("\"class_names\":[", "\"class_names\":[\"ghost\",", 1);
    assert_ne!(extra_class, json);
    match from_json(&extra_class) {
        Err(TreeError::InvalidModel { reason }) => {
            assert!(reason.contains("class name"), "got: {reason}")
        }
        other => panic!("expected InvalidModel, got {other:?}"),
    }

    // Arena-length corruption: dropping the totals array entirely leaves
    // a well-formed JSON document that fails structural validation (the
    // shim reports the missing field as a v2 parse failure).
    let no_totals = json.replacen("\"totals\":", "\"nototals\":", 1);
    assert_ne!(no_totals, json);
    assert!(from_json(&no_totals).is_err());

    // Numeric corruption: JSON `1e999` parses to +inf, which would make
    // classification produce NaNs and panic the serving argmax — it must
    // be refused at load time instead.
    let inf_dist = json.replacen("\"dists\":[", "\"dists\":[1e999,", 1);
    assert_ne!(inf_dist, json);
    match from_json(&inf_dist) {
        Err(TreeError::InvalidModel { reason }) => {
            assert!(reason.contains("non-finite"), "got: {reason}")
        }
        other => panic!("expected InvalidModel, got {other:?}"),
    }
}

#[test]
fn unknown_and_malformed_version_tags_are_refused() {
    let json = to_json(&trained()).unwrap();

    // A future format version must be refused rather than misread…
    let future = json.replace("\"format_version\":2", "\"format_version\":99");
    assert_ne!(future, json);
    match from_json(&future) {
        Err(TreeError::InvalidModel { reason }) => {
            assert!(reason.contains("newer format"), "got: {reason}")
        }
        other => panic!("expected InvalidModel, got {other:?}"),
    }

    // …and a non-numeric tag is a v2 parse failure.
    let garbled = json.replace("\"format_version\":2", "\"format_version\":\"two\"");
    assert_ne!(garbled, json);
    match from_json(&garbled) {
        Err(TreeError::Serde { op, .. }) => {
            assert!(op.contains("version-2"), "got: {op}")
        }
        other => panic!("expected a v2 parse error, got {other:?}"),
    }
}

#[test]
fn every_truncation_inside_the_v3_footer_errors_cleanly() {
    // The version-3 footer is the last 32 bytes. Severing it at any
    // byte boundary must be rejected — truncation that leaves the magic
    // intact is a typed `Corrupt`, truncation inside the magic itself
    // degrades to a v2 parse error (trailing garbage), and only a cut
    // that removes the footer *entirely* yields a byte-exact v2 file,
    // which back-compat requires `from_json` to accept.
    let v3 = to_json_v3(&trained()).unwrap();
    let body_len = v3.len() - 32;
    for len in body_len + 1..v3.len() {
        let prefix = &v3[..len];
        let err = from_json(prefix).expect_err("truncated footer was accepted");
        if len >= body_len + 6 {
            assert!(
                matches!(err, TreeError::Corrupt { .. }),
                "cut at {len}: expected Corrupt, got {err:?}"
            );
        }
    }
    assert!(from_json(&v3[..body_len]).is_ok(), "footer-less = v2");
    assert!(from_json(&v3).is_ok());
}

#[test]
fn single_bit_flips_in_body_and_footer_are_caught() {
    let v3 = to_json_v3(&trained()).unwrap();
    let body_len = v3.len() - 32;
    let direct = from_json(&v3).unwrap();

    // Flip the low bit of a byte at a spread of positions across the
    // body and every byte of the footer. XOR with 0x01 keeps each byte
    // ASCII, so the string stays valid UTF-8 and the checksum — not the
    // text encoding — is what has to catch the damage. A flip inside
    // the 6-byte footer magic makes the footer unrecognisable, so those
    // surface as parse errors instead of `Corrupt` — any rejection is
    // acceptable there; everywhere else the typed variant is required.
    let positions = (0..v3.len()).filter(|i| i % 97 == 0 || *i >= body_len);
    for i in positions {
        let mut bytes = v3.clone().into_bytes();
        bytes[i] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        let in_magic = (body_len..body_len + 6).contains(&i);
        match from_json(&flipped) {
            Ok(loaded) => panic!(
                "bit flip at byte {i} went undetected (loaded a tree {}the original)",
                if loaded == direct {
                    "equal to "
                } else {
                    "differing from "
                }
            ),
            Err(TreeError::Corrupt { .. }) => {}
            Err(_) if in_magic => {}
            Err(other) => panic!("bit flip at byte {i}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn v2_and_legacy_files_reconverge_to_the_v3_arena() {
    // Loading an old footer-less v2 file and re-saving it as v3 must
    // preserve the arena bit for bit: upgrade is re-foot, never re-train.
    let tree = trained();
    let v2 = to_json(&tree).unwrap();
    let v3 = to_json_v3(&tree).unwrap();

    let from_v2 = from_json(&v2).unwrap();
    assert_eq!(from_v2.flat(), tree.flat(), "v2 → v3 arena equality");
    assert_eq!(to_json_v3(&from_v2).unwrap(), v3);

    // A pre-arena file (a boxed tree under a "root" key) is not a
    // supported format: it is a typed parse error, not a model.
    let legacy = r#"{"root":{"Leaf":{"distribution":[1.0,0.0],"counts":[1.0,0.0]}},"n_attributes":1,"class_names":["A","B"]}"#;
    assert!(
        matches!(from_json(legacy), Err(TreeError::Serde { .. })),
        "pre-arena file: {:?}",
        from_json(legacy)
    );
}

#[test]
fn non_json_and_wrong_shape_inputs_error() {
    assert!(from_json("").is_err());
    assert!(from_json("42").is_err());
    assert!(from_json("[1,2,3]").is_err());
    assert!(from_json("{\"root\": 17}").is_err());
    assert!(from_json("{\"format_version\": 2}").is_err());
}
