"""Golden bytes of the formulas that `ordstat emit` prints.

For every (N, rank) with N <= 7 and every shape the formula-compile
benchmark compiles, in both forms: the first 16 hex digits of the SHA-256
of emit_slp(...).to_text() and of emit_text in infix and sexpr syntax,
with (node_count_tree, node_count_dag, depth). The arithmetic texts of the
shapes past N = 7 run to hundreds of megabytes as trees, so only their
listing and metrics are pinned. The hashes pin the order of temps and
constants as well as the text, so any change to how a graph is walked,
shared or numbered shows here.
"""

import hashlib

import pytest

import ordstat as o

GOLDEN = {
    (1, 1, "minmax"): ((1, 1, 1), "80bff041e5b0363c", "ec31682fde561917", "7f1613f9ccb5d9b1"),
    (1, 1, "arithmetic"): ((1, 1, 1), "80bff041e5b0363c", "ec31682fde561917", "7f1613f9ccb5d9b1"),
    (2, 1, "minmax"): ((3, 3, 2), "fe55b49b813f3ef7", "7a12aee9e43f2604", "3cef85db034274ee"),
    (2, 1, "arithmetic"): ((9, 7, 5), "3ab6510abba58e81", "c762a7ad18f80e07", "b5d3602d43c95097"),
    (2, 2, "minmax"): ((3, 3, 2), "0fb5b5292942f319", "d2620352d4f4c507", "7dd1995927f6a9af"),
    (2, 2, "arithmetic"): ((9, 7, 5), "69203bc777fcb758", "00286f82d42fe598", "bfaf809de208e200"),
    (3, 1, "minmax"): ((5, 5, 3), "5b15eb3c1ec75b5f", "fadab22c96817dbd", "ea7d641e02513820"),
    (3, 1, "arithmetic"): ((25, 13, 9), "01b00b433e17b3f2", "3e808433cc03de56", "e544e34be7e107b0"),
    (3, 2, "minmax"): ((11, 8, 4), "8297561fdf1e7ae1", "81d82b273eecd71e", "2fd1bad2eab26ce9"),
    (3, 2, "arithmetic"): ((105, 28, 13), "34c1105c0db29d9a", "c200ed4014e80e84", "86348cb28b8710d3"),
    (3, 3, "minmax"): ((7, 6, 3), "faf5d165747805e8", "0d9dfeed13197930", "a9a57fc03af9c9f6"),
    (3, 3, "arithmetic"): ((41, 18, 9), "9f80cfee91c64fd2", "c5e27cb856b9fd53", "64b014365fee6744"),
    (4, 1, "minmax"): ((7, 7, 4), "1b3308ca763c8946", "8a8456cddbb84388", "9210c2ef538661c7"),
    (4, 1, "arithmetic"): ((57, 19, 13), "fda01be7b92b7260", "afea4d8f6c183b2e", "287b2fb750b88161"),
    (4, 2, "minmax"): ((23, 14, 6), "480e3cad22233377", "680a9dd2039d0839", "47f75064f06099ff"),
    (4, 2, "arithmetic"): ((585, 54, 21), "be029dac8d59436b", "4b88b4c1ba0d85b1", "f94f26d826fc13ed"),
    (4, 3, "minmax"): ((35, 18, 6), "a9fd84cb3c6550f5", "62b3779999a2272c", "4640ac4bb16b260e"),
    (4, 3, "arithmetic"): ((1065, 74, 21), "3265c490306ba454", "ff52de44d3302eda", "8bd6bc4904ed2960"),
    (4, 4, "minmax"): ((15, 10, 4), "a649d12c384c0153", "3d50a9b710fe4281", "caacfda084120afd"),
    (4, 4, "arithmetic"): ((169, 34, 13), "617fe7af20914859", "d85cf92cdfca0253", "0d1c41220353d3a2"),
    (5, 1, "minmax"): ((9, 9, 5), "c2067600b386ef83", "7f6a8809444b1655", "2c5abfb438357679"),
    (5, 1, "arithmetic"): ((121, 25, 17), "2d81ecab9bbda998", "a20dc7c167493c32", "aa5a43b35e0e8e55"),
    (5, 2, "minmax"): ((39, 21, 8), "862442d0b97c7dad", "d4541389ff1fa481", "5fa0efb25456bf67"),
    (5, 2, "arithmetic"): ((2697, 85, 29), "7643fdc44125e516", "a7727da8f2f7f8a5", "39a0d1279b35e7aa"),
    (5, 3, "minmax"): ((95, 36, 9), "83fe68625bebd956", "c9c7f0b6399102f9", "676857acfabbe1cc"),
    (5, 3, "arithmetic"): ((12905, 160, 33), "ece77092eb5d7c3d", "9b87bb2cf7412f65", "ac2d672e617fa44b"),
    (5, 4, "minmax"): ((107, 35, 8), "9e3efeb838f6c7e0", "cf7d3dfbdc18dfb7", "50b4cf5fcc894594"),
    (5, 4, "arithmetic"): ((10665, 155, 29), "48c51f4a93f18211", "45bcbd9bb095d52d", "6dc9f2ea6a3e3d1f"),
    (5, 5, "minmax"): ((31, 15, 5), "b1afff17ebc419ed", "d1be692aa52f1b9d", "1a226e251e3202e2"),
    (5, 5, "arithmetic"): ((681, 55, 17), "c0f7b48f46bc95d3", "a42c5aac96adcac4", "bd244781bd4cc66a"),
    (6, 1, "minmax"): ((11, 11, 6), "c49503bbe1f771cf", "f78c849de4f76a7c", "e3373176198b8e4f"),
    (6, 1, "arithmetic"): ((249, 31, 21), "543e42cb3affd4f0", "a6488f00d5bbfad5", "aa7ac372982a6754"),
    (6, 2, "minmax"): ((59, 29, 10), "b39bea8218a7816f", "2f1bda1d38eae3cf", "08a2427ab442a9f9"),
    (6, 2, "arithmetic"): ((11529, 121, 37), "5f593c75d9407cca", "0d9a04974f6972c8", "5e4d459d253775d7"),
    (6, 3, "minmax"): ((199, 61, 12), "aa7124f0752cce20", "8788f0e750997bb9", "b78e2d45f9dacb6c"),
    (6, 3, "arithmetic"): ((124137, 281, 45), "50a9b1a003fcb0bc", "bf127a9af4c25667", "2f34826c06c44cf1"),
    (6, 4, "minmax"): ((383, 81, 12), "b62cdfa30d2e17f4", "9fa6302085a725cb", "f82f5053d64dfe5e"),
    (6, 4, "arithmetic"): ((283945, 381, 45), "f4abce88f061d557", "4a8fda4cea9c6ddd", "a359ad788c7a013d"),
    (6, 5, "minmax"): ((323, 61, 10), "d6e0e85944ea490b", "4842d31487f0cd42", "916cdc879957c55f"),
    (6, 5, "arithmetic"): ((106665, 281, 37), "aa1aac2f50c82fa5", "f8ffc2b58cd62f62", "d2649cf5ec1cffe0"),
    (6, 6, "minmax"): ((63, 21, 6), "bbade50ef985949f", "9021f2b7b3016b5f", "2d82a8452eaf1669"),
    (6, 6, "arithmetic"): ((2729, 81, 21), "2e84cd47a1925ab7", "744111b7d51a6eb5", "bde82ae0745dc23d"),
    (7, 1, "minmax"): ((13, 13, 7), "b9fa309aac1d3fbc", "5f8731f01d1e68cc", "4dec4b064bb071e2"),
    (7, 1, "arithmetic"): ((505, 37, 25), "65dc97e801f26d37", "bac3ca3a10c64275", "d2e29e8e717b2d1b"),
    (7, 2, "minmax"): ((83, 38, 12), "a37ba8d9ddb17d94", "b8080ee460897bff", "8533bf10cc16cf3b"),
    (7, 2, "arithmetic"): ((47625, 162, 45), "329a33c1b5a596dd", "14a3d794f8c74839", "a0089d54ed4934d0"),
    (7, 3, "minmax"): ((359, 94, 15), "c2ecec75dd64a769", "5cf8b1290440dbfb", "cde9f6f1fb50f7ae"),
    (7, 3, "arithmetic"): ((1083881, 442, 57), "1dfa9efaa48578fb", "c16743c6602b8f6d", "9de358850b3ed818"),
    (7, 4, "minmax"): ((999, 156, 16), "ffea50fabfbfff5a", "583a4a4cb8ff390f", "46d4ea1b8e12e5e0"),
    (7, 4, "arithmetic"): ((5710377, 752, 61), "642e78d5f4143cd3", "5a75c5eb1e917343", "53a24b49bd4b9ceb"),
    (7, 5, "minmax"): ((1535, 162, 15), "597af1febb58f7db", "75a05e8551436fe9", "260bcf16aad12973"),
    (7, 5, "arithmetic"): ((6246825, 782, 57), "270c9d9e6847eb4c", "bff9acc4099f2225", "220452bd80239682"),
    (7, 6, "minmax"): ((971, 98, 12), "c76911c721f952dc", "6459b5624860a6bb", "f8d2df794db45d92"),
    (7, 6, "arithmetic"): ((1066665, 462, 45), "5a502294b2acd278", "c26caac3f4e5e09d", "698fa713934ce7d0"),
    (7, 7, "minmax"): ((127, 28, 7), "d1f85db454211125", "9981d02b149ff3f2", "c0874ea192a43e7b"),
    (7, 7, "arithmetic"): ((10921, 112, 25), "fa59ef02ca5a5193", "8336638e64a86801", "23bbb3ee7301d0b8"),
    (8, 3, "minmax"): ((587, 136, 18), "594d9e202bd5c65c", "3d00f6bc49a8936b", "b36a9c89098b3d9d"),
    (8, 3, "arithmetic"): ((9049065, 648, 69), "20522f727dadae7c", None, None),
    (8, 4, "minmax"): ((2159, 269, 20), "295da700724af848", "653e47e67a47a0cb", "d2a95a1acfb3224c"),
    (8, 4, "arithmetic"): ((101884969, 1313, 77), "81cf0c0a2caf7a79", None, None),
    (8, 6, "minmax"): ((6143, 295, 18), "f2df1f02b882506d", "e0d8dbcbeb961dcf", "4f4f26209ef87f73"),
    (8, 6, "arithmetic"): ((137430185, 1443, 69), "6c77b492e0114ecf", None, None),
    (9, 3, "minmax"): ((895, 188, 21), "41c53680c2748dbf", "2ce1706d4efb48a3", "cf4d21ed77f5e512"),
    (9, 3, "arithmetic"): ((73934825, 904, 81), "b4a3eff9f1bb6d7f", None, None),
    (9, 7, "minmax"): ((24575, 499, 21), "0d209348240a108a", "bced2ad36014348b", "82812fb820719d99"),
    (9, 7, "arithmetic"): ((3023464105, 2459, 81), "5ba2ab3de1ec17b3", None, None),
    (10, 8, "minmax"): ((98303, 796, 24), "f95ab34612ac3766", "b1622125f8242753", "eeecd83c2244c8a9"),
    (10, 8, "arithmetic"): ((66516210345, 3940, 93), "8d247ee966c9a928", None, None),
    (11, 2, "minmax"): ((219, 84, 20), "c00a7c16e03ae44a", "4c59d6fc353f1d5b", "096d3c9b9e6dd5f8"),
    (11, 2, "arithmetic"): ((12558345, 376, 77), "b2d44435efd0ff07", None, None),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("n_vars,rank,form", sorted(GOLDEN))
def test_formula_bytes(n_vars, rank, form):
    metrics, slp, infix, sexpr = GOLDEN[n_vars, rank, form]
    e = o.build_selection_expr(n_vars, rank, form)
    m = o.metrics_of(e)
    assert (m.node_count_tree, m.node_count_dag, m.depth) == metrics
    assert digest(o.emit_slp(e).to_text()) == slp
    if infix is not None:
        assert digest(o.emit_text(e, "infix")) == infix
        assert digest(o.emit_text(e, "sexpr")) == sexpr
