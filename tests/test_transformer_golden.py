"""Golden transformer artifacts of every bundled update.

The digests below were recorded while the UPT compiled transformers as
part of a printed whole-program source (declaration stubs of the new
program plus field-only old-class stubs). Any rework of how the compile
context is assembled must reproduce them exactly: per update, the sha256
over the compiled ``transformer_classfiles`` (every class file's full
serialised form and its access-override flag) and the sha256 of
``transformers_source``.
"""

import hashlib
import json

import pytest

from repro.apps.registry import APPS, update_pairs
from repro.compiler.jastadd import has_access_override
from repro.harness.updates import AppDriver


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _updates():
    for app in APPS:
        for old, new in update_pairs(app):
            yield f"{app} {old}-{new}", (app, old, new)


UPDATES = dict(_updates())


def _digests(prepared):
    classfiles = [
        [name, cf.to_dict(), has_access_override(cf)]
        for name, cf in sorted(prepared.transformer_classfiles.items())
    ]
    return (
        _sha256(json.dumps(classfiles, sort_keys=True)),
        _sha256(prepared.transformers_source),
    )


TRANSFORMER_DIGESTS = {
    'crossftp 1.05-1.06': (
        '28b815f44cfb9859c358fe1f1372a27af90e6e4c48d58256b2de661dd773c219',
        '51211d68d577d8b614720ed072f45ea7d25f76ab26fdd6cd3b79fb5cee4361c5',
    ),
    'crossftp 1.06-1.07': (
        'c125af243e8b5c19d6e0da36db754035d176e5a1e3f1aaf4cabe597dbf7c1799',
        'f791409d9c7ce2908e087fbf71039d0a9d9b5b53a373dc93713f9c780b84f506',
    ),
    'crossftp 1.07-1.08': (
        '0389fd5cbeebb36deaab65875a410e64f58790e10ca74bcbc8173ff624137f3f',
        '3cc464d59d227ac3b14fca9625c547074c73bbcc3e233175d8d12633204653eb',
    ),
    'javaemail 1.2.1-1.2.2': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'javaemail 1.2.2-1.2.3': (
        '9455e79207d9695eb22aadd68442ebc87d6366d46669896dde198435dca0b757',
        'aa92b969a21508b5d268d236debcdf7fa6d530c88f21b6cf28bb55e69e0c9b3e',
    ),
    'javaemail 1.2.3-1.2.4': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'javaemail 1.2.4-1.3': (
        'e5abbfe6f785ad3adef031c65f697f96188a087f2df6919d5b5d5257e38077ef',
        'ac46872f9b5e8add6024722043685171d6548d4f44878f011e9065f9fb2d82ab',
    ),
    'javaemail 1.3-1.3.1': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'javaemail 1.3.1-1.3.2': (
        'cf1f9b6c6489be52c0ec0f49e5bd5a9d9efaac8c1553b70f07a104c413d11482',
        '440d9d75d00ed57c3b4f238796fcde54442abafb4d62d5d9f3dc12de3924f957',
    ),
    'javaemail 1.3.2-1.3.3': (
        '58df9818d9df3ac5101bdd1d7714599f543b395a70d319cb75864496762bd4b8',
        '54864dad65e2e9634d2071adf94cbc4544c63b5bd589cb0c1a67ed7805ee035f',
    ),
    'javaemail 1.3.3-1.3.4': (
        '0675d8b4545cc1a5c51201c47d672aca6364046f47d6308cd51812f6b10db835',
        '57cc55d7dc64c6c6dac7c37cd5642af559c7f633ce23691a420bae94c7bf4f77',
    ),
    'javaemail 1.3.4-1.4': (
        'eb17a691514368f06bc170de21804a17daf8d22dddd080a39ec78f6e47fe38a9',
        'a1c126e47d6c7101b89deeb7a25af434102c10dfccb6cf489ea2280209109392',
    ),
    'jetty 5.1.0-5.1.1': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'jetty 5.1.1-5.1.2': (
        '741deddea6c1510ec764b6475c06b2700d75dc6541b6554c7333a08abbed1967',
        '467017eff364fa232242766ed66637512e7c5abcb91c3e1e0f42d23b00b2a915',
    ),
    'jetty 5.1.2-5.1.3': (
        'de5aae452be9ed9483bc63240ce6948352530a50196025c50f751a74ee5c9666',
        'd61d7661f0c4c4280adff3318699da26cd517e347be77dff25c345a3f7368326',
    ),
    'jetty 5.1.3-5.1.4': (
        '16850f77a728bd4885596c8c025cdc51d09424d380b34737a2797701cbacd173',
        '50955b8af4dbff7b42aed760985544405be7d5df9bfeec197f22a65a9f20bdd6',
    ),
    'jetty 5.1.4-5.1.5': (
        'd9ae287f7bd249de9afef69a45b1749369d47ba48428b833f57292836031a65b',
        '87e67cce579b1956b3b3bc93857cdcfe8a6315a574a01cedac90178f703a5018',
    ),
    'jetty 5.1.5-5.1.6': (
        '8c55aa6bf38c021001f052c96cb2fe92ee158e1488771f11b0618bb668b9d889',
        'c6e1e8124421fc7a76592d33293204c3fb37fcf3727dd81b88a3b2f2cd930f4b',
    ),
    'jetty 5.1.6-5.1.7': (
        '2bfe9e78e733ae2041770a6cb5c9dc92521e9e2c86a7aeb57da29e089c374cb6',
        '4e8822aa0da3ec42ee5bf885bf4baa2662915c1da94e28f57fa932b2be621244',
    ),
    'jetty 5.1.7-5.1.8': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'jetty 5.1.8-5.1.9': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
    'jetty 5.1.9-5.1.10': (
        'c71f4362564d5b455ff1d0a3649764455d48d90ed15244fa20616d034144a464',
        '8e1921275c6669dc8baac7ed5c26b13602ea4b06ef19851144ef90511ec5fb0d',
    ),
}


def test_every_bundled_update_is_pinned():
    assert len(UPDATES) == 22
    assert set(TRANSFORMER_DIGESTS) == set(UPDATES)


@pytest.mark.parametrize("key", sorted(UPDATES))
def test_transformer_digest(key):
    app, old, new = UPDATES[key]
    prepared = AppDriver.for_app(app).prepare_pair(old, new)
    assert _digests(prepared) == TRANSFORMER_DIGESTS[key]
