//! Round-trip properties of the workspace JSON codec: for generated
//! trees, both renderings parse back to the tree they came from.

use proptest::prelude::*;
use revkb_obs::Json;

/// Characters that stress the escaper and the parser: every ASCII
/// byte the renderer escapes, plain ASCII, two- and three-byte
/// characters, and astral (four-byte) characters.
const CHARS: &str = "\u{0}\u{1}\u{8}\u{c}\t\n\r\u{1f}\"\\/ aZ0\u{7f}\u{e9}\u{3b1}\u{2028}\u{65e5}\u{fffd}\u{10000}\u{1f600}\u{10ffff}";

fn string_strategy() -> BoxedStrategy<String> {
    let chars: Vec<char> = CHARS.chars().collect();
    prop::collection::vec(0..chars.len(), 0..12)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
        .boxed()
}

/// Finite numbers: integers as ids and counters carry them, and
/// arbitrary finite `f64` bit patterns.
fn number_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        1 => (0..1_000_000u64).prop_map(|n| n as f64),
        1 => any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() { x } else { 0.0 }
        }),
    ]
    .boxed()
}

fn tree_strategy() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        1 => Just(Json::Null),
        1 => any::<bool>().prop_map(Json::Bool),
        2 => number_strategy().prop_map(Json::Num),
        3 => string_strategy().prop_map(Json::Str),
    ]
    .boxed();
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((string_strategy(), inner), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn compact_render_round_trips(v in tree_strategy()) {
        let text = v.render();
        prop_assert!(!text.contains('\n'), "compact rendering spans lines: {text:?}");
        prop_assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_render_round_trips(v in tree_strategy()) {
        prop_assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
