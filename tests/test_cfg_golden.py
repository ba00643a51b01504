"""Golden control-flow facts of every bundled method.

The digests below were recorded while semdiff, osrmap and reachability
each derived their own successors, liveness and slot numbering. Any
rework of those analyses onto a shared control-flow model must reproduce
them exactly:

* per program (the prelude, every bundled app version, both micro
  programs), the sha256 over each method's canonical form,
  may-never-return verdict, loop heads, parkable pcs, per-pc liveness,
  canonical local slots and osrmap alignment tokens;
* the sha256 of ``dsu-lint --all-apps --json --check-expected`` output,
  with and without ``--paper-fidelity``.
"""

import hashlib

import pytest

from repro.analysis.osrmap import _tokens, loop_heads, parkable_pcs
from repro.analysis.reachability import method_may_never_return
from repro.analysis.semdiff import canonicalize_method
from repro.apps.registry import APPS
from repro.bytecode.cfg import canonical_slots, liveness, param_slot_count
from repro.cli import main
from repro.compiler.compile import compile_prelude, compile_source
from repro.harness.microbench import MICRO_V1, MICRO_V2


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _programs():
    yield "prelude", lambda: compile_prelude()
    yield "micro1", lambda: compile_source(MICRO_V1, "<micro1>", version="micro1")
    yield "micro2", lambda: compile_source(MICRO_V2, "<micro2>", version="micro2")
    for app, info in APPS.items():
        for version, source in info.versions.items():
            yield f"{app} {version}", (
                lambda source=source, app=app, version=version:
                compile_source(source, f"<{app} {version}>", version=version)
            )


PROGRAMS = dict(_programs())


def _method_facts(method):
    code = method.instructions
    renamed = canonical_slots(code, param_slot_count(method))
    return (
        method.name,
        method.descriptor,
        canonicalize_method(method),
        method_may_never_return(method),
        loop_heads(code),
        parkable_pcs(code, set(range(len(code)))),
        [sorted(live) for live in liveness(code)],
        [renamed.get(i.a, i.a) for i in code if i.op in ("LOAD", "STORE")],
        _tokens(method),
    )


def _facts_digest(classfiles):
    facts = [
        (name, [_method_facts(m) for m in classfiles[name].methods.values()])
        for name in sorted(classfiles)
    ]
    return _sha256(repr(facts))


FACT_DIGESTS = {
    'prelude': '352128482363dd6aafcb6f83a1b76da191d4c22acaf9556e31c43bdc8c29b284',
    'micro1': '8bf9f8df4dabe3e0c3c198bc57ad5312dfa4d4b755cb3bfb749b3079f763de1c',
    'micro2': '8bf9f8df4dabe3e0c3c198bc57ad5312dfa4d4b755cb3bfb749b3079f763de1c',
    'jetty 5.1.0': '32deb2ecc7523ef67d466b671a7586475d94c43709157481f990e7b34e272cc1',
    'jetty 5.1.1': '004cc8ee1abc2bea62fbd59182af7a1fa89fa9e85452cf3f643bbe794ce28ef7',
    'jetty 5.1.2': '39d2151c593e11f65da4ecd435826ecbec8b2aaa743d5fc529ecf2d1cabf4643',
    'jetty 5.1.3': '7b4d2dfbeef4745d5dba2161af86096bf38277832d5e7f0e4d7e8cf5884eebba',
    'jetty 5.1.4': 'b2f03c1665c3c055028a3904e079a5b1244aeb7e55ec86ea4480b2a2244592b3',
    'jetty 5.1.5': 'f2f4ad1a13ec73ea4c1589960129023da6f432ac517db225227417be251ffade',
    'jetty 5.1.6': 'fa3332ce24f0ea70010cffa74393a8e03d1dd7695a5af10a85f7116bf926f2ed',
    'jetty 5.1.7': 'dd09446f693b43541e2be811254bd9eec4529de6c068871ae7b772dd7602ba71',
    'jetty 5.1.8': '56720b3cd6ad3f31d1f69bcba44c156e42e8faf3028374a2ff6931feba50ad91',
    'jetty 5.1.9': '60ede0f74aa555faa401cb7d6cc8e634cba14aa175be7da4177777efe0ed74bb',
    'jetty 5.1.10': '1f0d4d1dbc04c776547dcac5da67a1e5400d42f970eed9d27a1531dd2d34c19a',
    'javaemail 1.2.1': '2303de0db8c18a0e5af546668c38653543e266b0e50638e3a773456e64050c5d',
    'javaemail 1.2.2': '0844fa43eb8388b1723665c42cd43949c5b8bed9ae052c4ab954856c641940a0',
    'javaemail 1.2.3': '8a2ac2c5601c03981e1186aacf0427ba15755c42baaa7be380501f3de4bec611',
    'javaemail 1.2.4': '300a7373f13efc348c89388ebae35adf878478c75fa63bfbcda0cd259ce4d333',
    'javaemail 1.3': 'e9bc01144962765cda2b386181677f4331239865e01512a0a291dc74155ffd32',
    'javaemail 1.3.1': '7ae5cc0cf9f5b16757a221af050d06b76327b9137c6bad6fee5ee2a1c7101a4d',
    'javaemail 1.3.2': '3f348fc62b8379c8f03f11ee494a14c7addf3970af1810a4c511919b88d8573a',
    'javaemail 1.3.3': '77dd1d592189b48036ebe7e158a626e20eb668e4533c5ebc35933e8d541ebc47',
    'javaemail 1.3.4': '782a1f9e609a8c331765207439f01f520b2a75ca110c4dda9ab6cc6d9a2fe1f0',
    'javaemail 1.4': 'd35ff113554165c4c2df462daf5c8ec428758dee7ab2f49e439441cea2bc8c71',
    'crossftp 1.05': '19ad6cdf0ad8a4e47207bbc83756bbc9957e2fa287129e64927acb6d1223ef0d',
    'crossftp 1.06': '5a2a59dc39ef67dab792a59e14e371e34dfcdaf1e4e26d44fe6f61001389d633',
    'crossftp 1.07': '7473099e4b0b4fe486bdec5595392710e20de3ea349ebe0888893c4010756114',
    'crossftp 1.08': '11feed206c9dfa013468f61b559046d6c425a933b10e4f9eaa0cde832f8c0080',
}


def test_every_bundled_program_is_pinned():
    assert set(FACT_DIGESTS) == set(PROGRAMS)


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_cfg_facts_digest(key):
    assert _facts_digest(PROGRAMS[key]()) == FACT_DIGESTS[key]


LINT_DIGESTS = {
    (): 'f2c3792e0295cbaa93bab91d2a05ce36e04b4f47b4e0a1a9b49c5f6ecfd900c4',
    ('--paper-fidelity',): 'c05fab2a2ee3e3d8044d4384f258bbac344c98bf1a8e916f3e91e078341adb88',
}


@pytest.mark.parametrize("extra", [(), ("--paper-fidelity",)],
                         ids=["plain", "paper-fidelity"])
def test_dsu_lint_all_apps_output_digest(extra, capsys):
    code = main(["dsu-lint", "--all-apps", "--json", "--check-expected", *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == LINT_DIGESTS[extra]
