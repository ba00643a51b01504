"""Golden outputs of the jmini front end.

The tables below were recorded from the original character-at-a-time
lexer and the level-per-method recursive-descent parser. Any rewrite of
``repro.lang`` must reproduce them exactly:

* the sha256 of every bundled source's AST ``repr`` (locations included)
  and of its class files' ``ClassFile.to_json``;
* the sha256 of the transformer class files that ``prepare_update``
  compiles for every bundled update;
* the exact token list, or ``LexError`` message and location, of a set of
  lexer edge inputs.
"""

import hashlib

import pytest

from repro.apps.registry import APPS, update_pairs
from repro.compiler.compile import compile_prelude, compile_source
from repro.dsu.upt import prepare_update
from repro.harness.microbench import MICRO_V1, MICRO_V2
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.prelude import PRELUDE_SOURCE


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _classfiles_digest(classfiles):
    return _sha256("\n".join(classfiles[name].to_json() for name in sorted(classfiles)))


def _sources():
    """(id, filename, version, source) for every bundled jmini program."""
    yield "micro1", "<micro1>", "micro1", MICRO_V1
    yield "micro2", "<micro2>", "micro2", MICRO_V2
    for app, info in APPS.items():
        for version, source in info.versions.items():
            yield f"{app} {version}", f"<{app} {version}>", version, source


SOURCES = {key: (filename, version, source) for key, filename, version, source in _sources()}
UPDATES = [(app, a, b) for app in APPS for a, b in update_pairs(app)]

_compiled = {}


def _compile(key):
    if key not in _compiled:
        filename, version, source = SOURCES[key]
        _compiled[key] = compile_source(source, filename, version=version)
    return _compiled[key]


def _lex(source):
    try:
        return [(t.kind.name, t.value, t.location.line, t.location.column)
                for t in tokenize(source, "<t>")]
    except LexError as error:
        location = error.location
        return ("LexError", error.message, location.filename, location.line, location.column)


# ---------------------------------------------------------------------------
# digests

AST_DIGESTS = {
    'prelude': 'c979b359b28b80a6ad39abb8e7fdab5aaa91c879d360841bb33777a1f04abb92',
    'micro1': '2d6f73ef7acf22b4f441fdde8d093d3730b855b67645adf27b029df8c4b5719d',
    'micro2': 'baa1b3aab1faada2bbd2b11cc3f57ef1df3561e60156d4f0b1d89e43c1a37e5d',
    'jetty 5.1.0': '40d0b47e847363d701b5f4ab2abc6f44408d8d9400b5f4396b52bd2eee556afd',
    'jetty 5.1.1': '9ee20c1f9246de904bf9ea9e8940e37975e27788defe021539da652b71d345c5',
    'jetty 5.1.2': '0b2188fd8fe3e785b769cedd3fbefff7b61c43ec54c56bba743de7939a1461f3',
    'jetty 5.1.3': '7329f0994ca33dc1b2d609e295cd7184b6a36402f2b1bec192584c2c88f948e6',
    'jetty 5.1.4': '20d599b6e64280ffd1a9106504b692d5e47aa158f191800f4ac0cfd87bf2516e',
    'jetty 5.1.5': '2e7b569d33e4512feeb85a918621d1f014f07fbf5ee40dd064326a36f89545a7',
    'jetty 5.1.6': '85f4bb121174f6fec6cbebeeccab9873bc6eec5b72366fdbd75ed92424f99ef0',
    'jetty 5.1.7': '1ac9bd4b7db706db2fdbae3fd6ce396a391d11d047ea99e15bf591938cc96e74',
    'jetty 5.1.8': 'a43fe37dea13637c6a0f2a04b8d813b38385e116281f20f6bb26fc3ca6168228',
    'jetty 5.1.9': '075f40348cecaa48fbb4c83d0e8808fdf4aa23e1c7be542bf56f3d3c99e6c0b3',
    'jetty 5.1.10': 'e60fd31991f7e956709403a61dbecad342d9682a82d31fdad1d1d284504c7171',
    'javaemail 1.2.1': 'bea0efb0a79fcc009ca28749f0277c2ad4c37127c8cb591244d3450c270b1ad2',
    'javaemail 1.2.2': '3c357e9dba02ecb5206a9401f81dfba96acc4c0f32fbb1787b44dbdd814ac6ed',
    'javaemail 1.2.3': '2921a238279be0be96b26662f561ce10b781910b1c49814366c848d10af1a994',
    'javaemail 1.2.4': '31cebf7d00644abe6297e7451d61e65639abb2e5f4a62372bd7a5180f2224fce',
    'javaemail 1.3': '9e9ad24b7711d931d869da0fed1b949ed9f4716af51c9344d09e18cbc0912a87',
    'javaemail 1.3.1': 'a69f674fdb14aec557e7a70a8be75927bc6e5914dc264738c95b9299694d1470',
    'javaemail 1.3.2': 'fe1e539b47c2ed5436654193b340ad969d76c612e9cbd3b533a65b31fdf4a5c9',
    'javaemail 1.3.3': '9199e7fe92c188eb779ab0e4251c50702ef1bffcc729bc1eab3f9cd0b9acbef4',
    'javaemail 1.3.4': 'f9c1fc489e78761729597eabe00407dc3cb95f109607797f6a566a5d99dd59a6',
    'javaemail 1.4': '485b6d880eefa9486e84b364d2a20850e4326d5fe27fbed9018606a216aef5d9',
    'crossftp 1.05': '53dc058ae12fd76860b908aaae645be40aad4d133a3800c38bc4fe68ff7d4da4',
    'crossftp 1.06': 'ba7d7d7a248ee52bdba7328688c61228afcd154c85b802b962dff4a304bb7550',
    'crossftp 1.07': '6d7a2b895567cd2c940060c33cc6ce51178b25429616c5018410a066c0a9fda0',
    'crossftp 1.08': '2bee3151f435a2f7720821fca3709ecc5e9ab2d918e251b25839a999cd5710bd',
}

CLASSFILE_DIGESTS = {
    'prelude': 'd43e703b565ddb15d398952a746eb657144d1a55a6745fc19575b104a20f2036',
    'micro1': '42f34c9855914f12df7f158e200126383eba5b567ea8bdb0fa53e0b71123afb0',
    'micro2': 'fe8614e7793a02f2526a40bdcf93108022bb53873db0a0986ac3c5a67b2c4c12',
    'jetty 5.1.0': 'e4f530e81516ca9806711565ead3c077e728f90fbdfbc45a850268254cc755e4',
    'jetty 5.1.1': '6bacc494c80ec19b98d7f768a4e4885c6216913813752977eb614b5f34aa1d71',
    'jetty 5.1.2': '01b920c3139dc3d47ccc7d09a4b93a6415c0c4d92ec1a80250f39fe0254e3679',
    'jetty 5.1.3': '3f4e5bda37a80dc2622ee3ae021a4296c6e606f3796e52cffa66840cd0f1e91f',
    'jetty 5.1.4': '8e88d966d442844fbc7ec197f2400e3467992619faad4d45bbb5caac6c3d08bd',
    'jetty 5.1.5': '6ef485d4bab05aa6f547e548ba1d542c0c81102a6a873d80f58e677e370e2862',
    'jetty 5.1.6': 'b7d4552c997ee4a4df017b490c61799cfe5c6d02211e18f26d8996b584c3c40a',
    'jetty 5.1.7': 'e64407a9da1290bd239d1a32b1f711fea67a9d2ae6f7f46f64cb7b72fbf38e2b',
    'jetty 5.1.8': 'b6826e36188b912ee7ffbc3c78aedccfef3ac88a4e83fbdb33e88bd17060ad64',
    'jetty 5.1.9': '2459f2c3f4dffc44b717186665eb408cbd31254273e6951df5889282578ef689',
    'jetty 5.1.10': '785592c20f37b17b3c129d335d040db80e25bbb1f7ffc4ee22c342513f063ccc',
    'javaemail 1.2.1': '126395f8e36b3d47f54420378b725cd1962538cf25711e872fdfba64496f2f0a',
    'javaemail 1.2.2': '03f5f8ede967e2a8209d5756762404d32950002789d8149c3fab3128fb62ac8a',
    'javaemail 1.2.3': '2f0e65d2e9290c05ff14106e6535b4c4ccc04ca8ef2c6ca2e1c992a9ec4331ec',
    'javaemail 1.2.4': '613131753e7bb03d69757d388ce9feff9142dacda729d651d728e69c48b48f96',
    'javaemail 1.3': 'aba1f74f5bb6fee7309015c220c91751f590dc4f1850c4128bbd4e59a635886a',
    'javaemail 1.3.1': 'e8f67bf90036f7d223e5c8bbb96f2febbe14019b6473fd8976b740f626737e63',
    'javaemail 1.3.2': '8e643374bfc7457ce536cd83755d549646d22e540da44fabf3a51e06e8d3af4b',
    'javaemail 1.3.3': 'da172ec560165087e7d593966644e176938b0c7f165773c00e8d0a871e7b7ec6',
    'javaemail 1.3.4': '8d568c65753715ccc248420034f8099f7529616e49e603285dc834ceca826da9',
    'javaemail 1.4': '651f226883166628f1a298a2f38e00e6b763afb6d482f06ce5e3c30661ff2e9b',
    'crossftp 1.05': '78e0b06505d9644bd2e0c643fd516dd67ed29ddace0c279ae3f66ed7b1f83d33',
    'crossftp 1.06': '88a15f8780e8a5894eeb39840ff8f7002f5865606a7aeea22bc1a8ed04fc62d0',
    'crossftp 1.07': 'f8f581c2667382261306caae2672c73e02f72c7381223356e7bd28f675d2e9e8',
    'crossftp 1.08': '382227d347d84d5975516414f407805de104d1b87e2f5f44c75cca2e8f253ea4',
}

TRANSFORMER_DIGESTS = {
    'jetty 5.1.0->5.1.1': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'jetty 5.1.1->5.1.2': 'ab323256e43dcb10afbfb5addab6456f7fe349f5237c3e313e12420a73eed016',
    'jetty 5.1.2->5.1.3': '960aa9ed3e7d8cf72fba8ac07625f17f73cfe53fdae255502e7592dfc52a5fa0',
    'jetty 5.1.3->5.1.4': '3b1994164e2b580aa35688405afd500f07b697f40051652c482f3fde17406fa7',
    'jetty 5.1.4->5.1.5': '6a46aec016a03cba5583518c022081aaa4060f885498c2eb6809860ccc29b3e9',
    'jetty 5.1.5->5.1.6': 'a0e1ece517f23aefd63e57f609b2da0006df346c732c2e0538e135b41cf2aca1',
    'jetty 5.1.6->5.1.7': '73de273403a25486fe95debf4b2de3a2948476b977af077a875f46edf295816a',
    'jetty 5.1.7->5.1.8': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'jetty 5.1.8->5.1.9': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'jetty 5.1.9->5.1.10': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'javaemail 1.2.1->1.2.2': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'javaemail 1.2.2->1.2.3': '65ebdc43a4a33069c1c22e3fe532c06d85c78eca61415e90ac76a52d16a0b077',
    'javaemail 1.2.3->1.2.4': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'javaemail 1.2.4->1.3': 'dd66fefe7ce8c48a4e8d2e99a426a054987f2925c32af4c424ae94a58d5fe3b3',
    'javaemail 1.3->1.3.1': '0f2c885589d5b251b1ea0c32be548cfc2e49ac366494442368e49e58b233e098',
    'javaemail 1.3.1->1.3.2': '50464b3771ea3882d9a331a1dd99e715af6450002850d23aee9c951515c53878',
    'javaemail 1.3.2->1.3.3': 'a324193246b17b2493dccb4d16667c553210dc93d9cae52c01a7c27a8c65b7b3',
    'javaemail 1.3.3->1.3.4': '8d29908766c2193259bbc6767d41d961c9648e05976e47d12cfc26486c431b51',
    'javaemail 1.3.4->1.4': 'e0c6c151c87decb2a04b777386359d489a0d289198cab492c45001a0cab37f91',
    'crossftp 1.05->1.06': '595e3098cda4a96e8981d22d741e9c43d16132bc228fd4925dd1ba813c9c77c7',
    'crossftp 1.06->1.07': '8e29c477b5cad0855f3a952cb736472a83914e8ca2e498f4877da9ec72d4373f',
    'crossftp 1.07->1.08': 'b3dd21b78138e9082d0e5aaf4a501591e8932e0ccd2ba13cef1709c6fbafed0d',
}


def test_every_bundled_source_and_update_has_a_digest():
    assert set(AST_DIGESTS) == {"prelude", *SOURCES}
    assert set(CLASSFILE_DIGESTS) == {"prelude", *SOURCES}
    assert set(TRANSFORMER_DIGESTS) == {f"{app} {a}->{b}" for app, a, b in UPDATES}
    assert len(TRANSFORMER_DIGESTS) == 22


def test_prelude_ast_and_classfiles():
    assert _sha256(repr(parse(PRELUDE_SOURCE, "<prelude>"))) == AST_DIGESTS["prelude"]
    assert _classfiles_digest(compile_prelude()) == CLASSFILE_DIGESTS["prelude"]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_bundled_source_ast(key):
    filename, _, source = SOURCES[key]
    assert _sha256(repr(parse(source, filename))) == AST_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_bundled_source_classfiles(key):
    assert _classfiles_digest(_compile(key)) == CLASSFILE_DIGESTS[key]


@pytest.mark.parametrize("app,a,b", UPDATES)
def test_bundled_update_transformer_classfiles(app, a, b):
    overrides = APPS[app].transformer_overrides.get((a, b))
    prepared = prepare_update(
        _compile(f"{app} {a}"), _compile(f"{app} {b}"), a, b,
        transformer_overrides=overrides or None,
    )
    assert (_classfiles_digest(prepared.transformer_classfiles)
            == TRANSFORMER_DIGESTS[f"{app} {a}->{b}"])


# ---------------------------------------------------------------------------
# lexer edge inputs: (kind, value, line, column) per token, or
# ("LexError", message, filename, line, column)

LEXER_TABLE = [
    ('', [
        ('EOF', '', 1, 1),
    ]),
    ('a\r\nb\r\n  c', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'b', 2, 1),
        ('IDENT', 'c', 3, 3),
        ('EOF', '', 3, 4),
    ]),
    ('\tx\t\ty\n\t z', [
        ('IDENT', 'x', 1, 2),
        ('IDENT', 'y', 1, 5),
        ('IDENT', 'z', 2, 3),
        ('EOF', '', 2, 4),
    ]),
    ('a / b', [
        ('IDENT', 'a', 1, 1),
        ('PUNCT', '/', 1, 3),
        ('IDENT', 'b', 1, 5),
        ('EOF', '', 1, 6),
    ]),
    ('a // c\nb', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'b', 2, 1),
        ('EOF', '', 2, 2),
    ]),
    ('a//b/*c\nd', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'd', 2, 1),
        ('EOF', '', 2, 2),
    ]),
    ('a /* c\n */ b', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'b', 2, 5),
        ('EOF', '', 2, 6),
    ]),
    ('a/**/b/***/c/*/ x */d', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'b', 1, 6),
        ('IDENT', 'c', 1, 12),
        ('IDENT', 'd', 1, 21),
        ('EOF', '', 1, 22),
    ]),
    ('a\n\n/* c */\n\tb', [
        ('IDENT', 'a', 1, 1),
        ('IDENT', 'b', 4, 2),
        ('EOF', '', 4, 3),
    ]),
    ('x /* never\nends', ('LexError', 'unterminated block comment', '<t>', 1, 3)),
    ('a /', [
        ('IDENT', 'a', 1, 1),
        ('PUNCT', '/', 1, 3),
        ('EOF', '', 1, 4),
    ]),
    ('==!=<=>=&&||=!<>+-*/%.,;(){}[]', [
        ('PUNCT', '==', 1, 1),
        ('PUNCT', '!=', 1, 3),
        ('PUNCT', '<=', 1, 5),
        ('PUNCT', '>=', 1, 7),
        ('PUNCT', '&&', 1, 9),
        ('PUNCT', '||', 1, 11),
        ('PUNCT', '=', 1, 13),
        ('PUNCT', '!', 1, 14),
        ('PUNCT', '<', 1, 15),
        ('PUNCT', '>', 1, 16),
        ('PUNCT', '+', 1, 17),
        ('PUNCT', '-', 1, 18),
        ('PUNCT', '*', 1, 19),
        ('PUNCT', '/', 1, 20),
        ('PUNCT', '%', 1, 21),
        ('PUNCT', '.', 1, 22),
        ('PUNCT', ',', 1, 23),
        ('PUNCT', ';', 1, 24),
        ('PUNCT', '(', 1, 25),
        ('PUNCT', ')', 1, 26),
        ('PUNCT', '{', 1, 27),
        ('PUNCT', '}', 1, 28),
        ('PUNCT', '[', 1, 29),
        ('PUNCT', ']', 1, 30),
        ('EOF', '', 1, 31),
    ]),
    ('&', ('LexError', "unexpected character '&'", '<t>', 1, 1)),
    ('a | b', ('LexError', "unexpected character '|'", '<t>', 1, 3)),
    ('"\\n\\t\\r\\\\\\"\\0"', [
        ('STRING_LITERAL', '\n\t\r\\"\x00', 1, 1),
        ('EOF', '', 1, 15),
    ]),
    ('"" "tab\there"', [
        ('STRING_LITERAL', '', 1, 1),
        ('STRING_LITERAL', 'tab\there', 1, 4),
        ('EOF', '', 1, 14),
    ]),
    ('s = "ab\\q";', ('LexError', 'unknown escape sequence \\q', '<t>', 1, 5)),
    ('x "abc', ('LexError', 'unterminated string literal', '<t>', 1, 3)),
    ('"ab\ncd"', ('LexError', 'newline in string literal', '<t>', 1, 1)),
    ('"ab\\', ('LexError', 'unterminated escape sequence', '<t>', 1, 1)),
    ('0 12 3456789', [
        ('INT_LITERAL', '0', 1, 1),
        ('INT_LITERAL', '12', 1, 3),
        ('INT_LITERAL', '3456789', 1, 6),
        ('EOF', '', 1, 13),
    ]),
    ('12_', ('LexError', 'identifier may not start with a digit', '<t>', 1, 1)),
    ('1abc', ('LexError', 'identifier may not start with a digit', '<t>', 1, 1)),
    ('0x1', ('LexError', 'identifier may not start with a digit', '<t>', 1, 1)),
    ('1é', ('LexError', 'identifier may not start with a digit', '<t>', 1, 1)),
    ('abé', [
        ('IDENT', 'abé', 1, 1),
        ('EOF', '', 1, 4),
    ]),
    ('é', [
        ('IDENT', 'é', 1, 1),
        ('EOF', '', 1, 2),
    ]),
    ('x² _é é1', [
        ('IDENT', 'x²', 1, 1),
        ('IDENT', '_é', 1, 4),
        ('IDENT', 'é1', 1, 7),
        ('EOF', '', 1, 9),
    ]),
    ('#', ('LexError', "unexpected character '#'", '<t>', 1, 1)),
    ('a # b', ('LexError', "unexpected character '#'", '<t>', 1, 3)),
    ('class Foo extends Bar { int x9 = -1; }', [
        ('KEYWORD', 'class', 1, 1),
        ('IDENT', 'Foo', 1, 7),
        ('KEYWORD', 'extends', 1, 11),
        ('IDENT', 'Bar', 1, 19),
        ('PUNCT', '{', 1, 23),
        ('KEYWORD', 'int', 1, 25),
        ('IDENT', 'x9', 1, 29),
        ('PUNCT', '=', 1, 32),
        ('PUNCT', '-', 1, 34),
        ('INT_LITERAL', '1', 1, 35),
        ('PUNCT', ';', 1, 36),
        ('PUNCT', '}', 1, 38),
        ('EOF', '', 1, 39),
    ]),
]


@pytest.mark.parametrize("source,expected", LEXER_TABLE,
                         ids=[repr(source) for source, _ in LEXER_TABLE])
def test_lexer_edge_input(source, expected):
    assert _lex(source) == expected
