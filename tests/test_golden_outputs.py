"""Byte-for-byte pins of the canonical CLI outputs.

Each case runs `darbouxops` in-process through `cli.main` and compares the
SHA-256 of its stdout with the digest in `DIGESTS`: `catalog show` of every
entry in text, JSON and LaTeX; `spaces` of every catalog algebra of
dimension at most 6 in LaTeX and JSON; `operator verify` and `pencil` in
JSON on a passing and a failing input each; `catalog verify --all` in text
and JSON.  Any byte change in those
outputs fails a test.

To print the digest table of the code on the path, run

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

import helpers
from darbouxops import catalog, catalog_data, cli, io_json

FORMATS = ("text", "json", "latex")
WHICH = ("casimirs", "metrics", "cocycles")

# an entry with a modulus; against its renamed copy it is not compatible
_MODULI_ENTRY = "A_{6,11}"


def _write_input(key: str, path: str) -> None:
    """Write the input file named `key`: "alg:NAME" is a catalog algebra, the rest are operators."""
    if key.startswith("alg:"):
        io_json.dump_algebra(catalog.catalog_get(key[4:]).algebra, path)
    elif key == "kdv_A":
        io_json.dump_operator(helpers.kdv_A().to_poly_operator(), path)
    elif key == "kdv_B":
        io_json.dump_operator(helpers.kdv_B().to_poly_operator(), path)
    elif key == "not_lie":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(helpers.NOT_LIE_OPERATOR, fh)
    elif key == "moduli":
        io_json.dump_operator(catalog.catalog_get(_MODULI_ENTRY).operator().to_poly_operator(),
                              path)
    else:
        raise KeyError(key)


def _cases():
    """(case id, argv with "@key" input files, exit code)."""
    cases = []
    for name in catalog.catalog_list():
        for fmt in FORMATS:
            cases.append((f"show {name} {fmt}", ["--format", fmt, "catalog", "show", name], 0))
    for rec in catalog_data.ENTRIES:
        if rec["dim"] <= 6:
            for which in WHICH:
                for fmt in ("latex", "json"):
                    cases.append((f"spaces {rec['name']} {which} {fmt}",
                                  ["--format", fmt, "spaces", f"@alg:{rec['name']}",
                                   "--which", which], 0))
    cases += [
        ("verify kdv_A", ["--format", "json", "operator", "verify", "@kdv_A"], 0),
        ("verify not_lie", ["--format", "json", "operator", "verify", "@not_lie"], 1),
        ("pencil kdv_A kdv_B", ["--format", "json", "pencil", "@kdv_A", "@kdv_B"], 0),
        ("pencil moduli moduli", ["--format", "json", "pencil", "@moduli", "@moduli"], 1),
    ]
    for fmt in ("text", "json"):
        cases.append((f"catalog verify --all {fmt}",
                      ["--format", fmt, "catalog", "verify", "--all"], 0))
    return cases


CASES = _cases()


def run(argv, workdir: str) -> tuple:
    """(exit code, stdout) of `darbouxops argv`, writing each "@key" input into workdir once."""
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = os.path.join(workdir, hashlib.sha256(arg.encode()).hexdigest()[:16] + ".json")
            if not os.path.exists(path):
                _write_input(arg[1:], path)
            arg = path
        resolved.append(arg)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(resolved)
    return code, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded with the code of the commit before the printer merge (`Poly._render`).
DIGESTS = {
    'show A_{2,1} text': '14c8d87715c0bd5856c2d5b10f67a5da15cd05278fa9bf789069f15a15eb7fa5',
    'show A_{2,1} json': 'e910d7527791450ccc16f4213598dc95809410d5e3f01b89b1e0603c688d6957',
    'show A_{2,1} latex': '27519b7853ff9a72328a05b1c1828d43040016defe6b41559f3b460fc3e8a2de',
    'show A_{3,1} text': 'd9f94170e6c5bf643019961c2bb105fef6c4d9a47a0d190d14e6fcd47ca503c2',
    'show A_{3,1} json': 'd684a2512abb6be6e8d5abf6486283bcbaa01c5368a2c1fe671a9b2a96014919',
    'show A_{3,1} latex': '32b75f754b3040b7ea6be893f6d9ecabb9141615d697de3ef9aa3faf012683a5',
    'show A_{3,2} text': 'db55e288b7117277f9919cd009522c30acd69b5907c321a234fe076459d3e7eb',
    'show A_{3,2} json': '5cde9dd66fc21d87a73cd0ce884eb3524667c2d7c8bdfc38fabb8774825a11ee',
    'show A_{3,2} latex': '711e3796d14b50aad814e6f1e6c5cbf05b41c37b6932da567e068da989c6f3e9',
    'show A_{3,3} text': '0f6e13b753cfb50637af910439f5714a5458ac861ab2becd37c6b671b060b394',
    'show A_{3,3} json': '11547b9b0f6555b6941b87e40db90aa2a041b82ff4c4e7a77b9c989566fbf3ce',
    'show A_{3,3} latex': '10fbb902184efca53e7b08a774291a6046a99105b3c6d39cd670aff93f162307',
    'show A_{4,1} text': 'f79e223eb58575303004ba9aad781ec749f7124fd01b939f0633e01a5d3ec913',
    'show A_{4,1} json': '6f7d36b47d9ecf6dc5dfdd0e3eadb59f59f6c27438f71048c7ee6bee8c414679',
    'show A_{4,1} latex': 'c7b903d2b480e3192c63022d982216f2697110356845ba94f2be34304d788ad0',
    'show A_{4,2} text': '9c1c1928b706467c78db9bf9852c5e620347687f2d64d7dbdc607fd805f78a24',
    'show A_{4,2} json': '4fdceb9258e449c343e883d97430a3bf4d4298ec795542e33354a51acbb81c7d',
    'show A_{4,2} latex': 'db22cbbc4ff092469f9f5ec218e109fd68dbdecff11870cee9730fd3f7ef1dea',
    'show A_{4,3} text': '96e57123f57fc14cd99648cf6cf190580e95715ad7d52341952163546a62c48f',
    'show A_{4,3} json': '735bc034b790ce1ae5260b469f697b859f23486ad98f944bfce57b57e7095699',
    'show A_{4,3} latex': '8657364741f25fb5e56c17d1183005757aa824f6a8a0a8ff8fd8badd20cd542f',
    'show A_{4,4} text': '88db66af37c83b70ff05e537e2b6d230abffb595fca565ee85fd6b249964db31',
    'show A_{4,4} json': '5779e53698673123831984891ffb7e3c948acd23d32b7e25aac20a7c58d8f641',
    'show A_{4,4} latex': '9474b5a94fcfb949b116746ffcd30183105fa6a21ae8d3babccc23ab5e2a06aa',
    'show A_{4,5} text': 'b35ed422dd5d731e8391e0918ffdc8fca66c448ac2d6b34a3ddfaba3c80ac6fc',
    'show A_{4,5} json': '93ffb05f24d442d16e347dc48bdee10c78d3763c9d3274eeb505198650acea87',
    'show A_{4,5} latex': '5a8457b8d7b52b7b85467ebd9c71724296ca79aa8a900ae2590a18d2fbe5530f',
    'show A_{5,1} text': '8cb513d0b73816268f898bd90a91f4ca21289dc4304d11dd75ee6db475c8cac4',
    'show A_{5,1} json': '9f0c93d34b8672a290b9b5b7804edfabdf834bc4664c4a3d1302ef8402185e73',
    'show A_{5,1} latex': '86dbf1f46b7dab7ebbc2242cbcda5343a913dad5056e5445c00eb1ff95896f96',
    'show A_{5,2} text': '19d98629d8dfdb7db596b1f1d5d1c9dc1ab760d92737d5ec6cd1eeb311b2dc7a',
    'show A_{5,2} json': '03d93cc14988718014b5917c730c04277edcbb8c90afb30cf51fdef5b18630e3',
    'show A_{5,2} latex': 'd4029a6679708d265dd97d3392d44149abb335745c1a0d76a26e707043e8599b',
    'show A_{5,3} text': '81b5fa2922e5b3d0bc2f5d01b3561ff73873a16f572225c3c20940de759bc1d0',
    'show A_{5,3} json': '83c592cdedf76c900d2bf25f677ea2a484af541b6075ad7466a2a8927fb5710b',
    'show A_{5,3} latex': '4733b524ed0a0cfae2f8cddb6263f21ecdd66df6ea7d53332bbcfa6a0a28fb00',
    'show A_{5,4} text': 'a0e4d603872696c11f36bf0fabdbec988b9479db15c7076284cc0510da085f16',
    'show A_{5,4} json': 'c758f4d507e5f60cbbe1438097c2706ec7f48d0515cc782a9199abe0c41b0e47',
    'show A_{5,4} latex': '828c050af5ec7386288a33ec7da27e43560e90bc75e3440d29148210d4f4a372',
    'show A_{5,5} text': '361822d69b201f8d1ed18aaffa9f20badd4f36c19b37ee061394caad32f877a9',
    'show A_{5,5} json': '06686d7fe70da5b1550c4ca7a5a2ceeb79f03ef2060b3f1e7727332184927fdb',
    'show A_{5,5} latex': 'b9a54f2d5489d66f00ec94fb1021bfe89e4dedd2dfb97d1db4487b134f1beaf6',
    'show A_{5,6} text': '50afe9ea57ff408ee46ea2c75125cdcdf1ede801180697d63536190a6274f6da',
    'show A_{5,6} json': 'cb7a9e04af36a77c60a48de50018310a0ed8da877677c77fc2bab90b9bb0a441',
    'show A_{5,6} latex': 'fe0a75ba25335bda8a37fbac17ad4ae016730c72623bc41a5f77037686c0a4e4',
    'show A_{6,1} text': 'b71f494736986df82dc89f29e887dcb695cbc1a4222315fae8a23942900cfe02',
    'show A_{6,1} json': '4a24659a76f81318a61a8413dfb7798b906e3f224002fd1041659e275d02965d',
    'show A_{6,1} latex': '7864658a5113e7441ef4279b461dc1e0484cab8b3c150197d94edbef869ef8b8',
    'show A_{6,2} text': 'abc4a6f75be1f5ed5ff06c251e662828d264af73ced3409a27f6acc865d42800',
    'show A_{6,2} json': '5c198eeb6a35221cd5626cd2d21e54d893ecc126c30b05018afd1d580ca97e46',
    'show A_{6,2} latex': '3049c7c2da6b9391b25d91740c5f9b111327549019536daa64ec7c851cd98bd4',
    'show A_{6,3} text': '73ade78d1a7330ab046299caba318306cd501a6cb61d7412b80ca24db1290678',
    'show A_{6,3} json': 'c3250bf8d9ccac809711ec998a0c0288de20e01814f876d7354ac60839a5a630',
    'show A_{6,3} latex': '85bd9cf2a8d222cbf2497744cc2f428d0e915ee96bb008ad4731cb52a65b7389',
    'show A_{6,4} text': '22400b06c44db6bd33a1fa921d16cc499dd0c0894d4d5602988845a96ca6b6ab',
    'show A_{6,4} json': 'b70a34fffe5b36b2e15f031a415cabdeb5622c588dbe49239c462e53e05d3373',
    'show A_{6,4} latex': '9163752577ea46a8e83139da234bedbbe9662334ff690d9960c55deb172dcd9a',
    'show A_{6,5} text': '9109906727a4e046520c5e2ac414e5d6c41b84b5bce9bd3e2cdf6056e1ec8550',
    'show A_{6,5} json': 'd87082956c6184fab94d953dd40d21edec6900eba6ee2d027ab5ddf7758f0e34',
    'show A_{6,5} latex': '685e768b6b8c042352ad5cd56d58e621022dfd85e47dd91fbe69618901cdca2a',
    'show A_{6,6} text': '51275fcf75e2b9556a6b425393e900848ea2f8cdb9ab82566605f444f9607bb5',
    'show A_{6,6} json': '5531bbb6e824641fbc1fb80f2c2b69aa320c322879f758c0eda467b69cc69c02',
    'show A_{6,6} latex': 'f832631afbefdc3ccbc838c57831dcb92e18f88daec939829f0292ef3b25144a',
    'show A_{6,7} text': '701321c00899109e7ff8222dc16b169c24a9f3498c0a8471ffaf65f1fe9d7d6a',
    'show A_{6,7} json': '4368060179140590f6ee4a6fb860e36ea0f99864092c9124078773205df65c8b',
    'show A_{6,7} latex': '3bdec7ab4b60770ba1ad86b06bbed31b719d20d35a24e6435422b5bebf4f9ce6',
    'show A_{6,8} text': 'eb0d5d6dbdd4b5e2e11b1673fce8498328ee5286b52a26946e07e0172292f1d3',
    'show A_{6,8} json': '80cf6011405e4cfe827b1d2fea3fe4689e0fe24c9931ad72abaa6dd3e8bcfd6e',
    'show A_{6,8} latex': '16d11a8dbaceac8f236c24311f7aefd56de0d75bfcb0fb6f3f90614f8e969093',
    'show A_{6,9} text': '94281a7b76150948a75894241ec566179b07f70710368ce65fc368f8af95bca5',
    'show A_{6,9} json': 'a94b248ba97a81c3177655d3457bbbf55778d0d5cad4f342a381df53f75dae3b',
    'show A_{6,9} latex': 'e19cb2b2580f21e0dfe5fe638df7e1a47822ddc07718b2398087bf5b5e62c5fb',
    'show A_{6,10} text': '85ee8fefe6ce6a9c2aafa7dec61a99fee8dcf2cf308ebbb43df208eda15e9bdc',
    'show A_{6,10} json': '5db34174d6ac2e936bb74473f82096b3089494adaa639e413174330ce886e56a',
    'show A_{6,10} latex': 'e19cb2b2580f21e0dfe5fe638df7e1a47822ddc07718b2398087bf5b5e62c5fb',
    'show A_{6,11} text': 'c8055d8e15500e3b8c2a97182b0543347072857e2da8af9140b1e7a192e8a9af',
    'show A_{6,11} json': '34eb949368739e3684460ab97967be4c93014fc82cae9296c7b0896f3998bf70',
    'show A_{6,11} latex': '73719a18e7fd00126b131fcae4de106fdd70f401462e7c891b3f2bb059f6a6e1',
    'show A_{6,12} text': '446dfb3b84c759d03926527dbcb1bcebd18a4768bc969273c711ead4363ce231',
    'show A_{6,12} json': '2c3b7856ec1b299b4fd8917b2124b1d538aecb9c6ff9d857158192a50650867d',
    'show A_{6,12} latex': '8d5972518651d9ed9d78f57e1cae8f45a21fbb2daa66f378e3db4dd2e91cc9c2',
    'show A_{6,13} text': '90402c4e703d884d36156efa57f634725f1c5ca322554339de0c0eb3dc5cea4a',
    'show A_{6,13} json': '67a9933b359bc8abc9219301ae394eee30a18a9334e8fe099e6dbf1d9e4de547',
    'show A_{6,13} latex': '76f4d7782f59544a781c77cd28a9f7ceffac5472c664100d0da59bd29ef2c749',
    'show A_{6,14} text': 'abb8b7874594fbfaa88e6acbeb584a61ca7d0fa442f423dabbd558f143505b5a',
    'show A_{6,14} json': '245872f914f6dafc453775ac54a6750efd8dc1fbccb83788deb4d607aa10222c',
    'show A_{6,14} latex': '2dc54609c1d639ab25ab980eb060c7974a0a525642968ce122d2a91cd7fb1e42',
    'show A_{6,15} text': '8a9bdd0d9e8a3d17fa0317ac682732f4ea3c747773b1a6cc4da8123efc81d804',
    'show A_{6,15} json': 'ca9cd52d688c8c7c290cda96ca5c48fa84aca5723ec3e36be9f8148ab9e4cb00',
    'show A_{6,15} latex': '8f407a3d14e21bcba3ce23f5fb086ee7b1decc34a23605fff70dc6d184236350',
    'show A_{6,16} text': 'ad605d9addc937246876289e3a47d30ed08421418d121c49715cbd6afbe8d667',
    'show A_{6,16} json': 'a7af2253e17b6ca9760f4f0d5c1b4758d7e8067b8e451208deb95a810a8361af',
    'show A_{6,16} latex': '5337e2e7a76b6fe0782a2a40d77932ec810191b91cd2798e248d2c767de6dde9',
    'show A_{6,17} text': '6389bdbdb533b7eaad0e31ad637223cf2ad7950c967ddfe45c64e358ba0d5131',
    'show A_{6,17} json': '03e0ecdaa66f14e2d410a7bcaafbf65a5fde5f69ee6290557837199e709e6ef7',
    'show A_{6,17} latex': '047d5b87afdb6625faf9c4a3b3baa65cad4ed444d1c73d99c3bcdc1acfda63a0',
    'show A_{6,18} text': '910d10bc691338427cf7edddfc68ab00036f8d845bbd2ef8f6c8d5837ca0d72f',
    'show A_{6,18} json': 'eb62e5d0b0e92af3a6fe817e64cef90c3c5966da78eb0b334583fedc7aad7386',
    'show A_{6,18} latex': '024eb5b3cf98c40d2a5068a77477048b1d2701dfe613e80dd0e235e58a4d5b4f',
    'show sl3 text': '5d912a94df47ea2f9e782662ac4d6e5904966aece9994c5753bbd6013b6b66be',
    'show sl3 json': '98e1b5282b954c22ad58b7d141105e395fa3cacdf4217f961ae3fa16b17dd791',
    'show sl3 latex': '1ed650a8ea47b871e5d2fa31550897e4e471196f96bfdc3023936cfdb9d16ca7',
    'show g2 text': '74eedc9c83cd7519cb83b409896cc7c6b94b53d7a8e5df73347d9c806e601e3d',
    'show g2 json': 'a02d9ed697f28de79559f1b5808f2ca8705f46eb863dc569d7cdac8a17f3a2ce',
    'show g2 latex': '8983ca8f282fbdb8e5d0ccdd891b38e1a387596747a3e9a3c25cc55173630b87',
    'spaces A_{2,1} casimirs latex': '1bf4067f961e80aaae7a1896bbde2c637432577d2d0874f1f82b85f9520407d5',
    'spaces A_{2,1} casimirs json': '04b7bbe6d16983b6408bcc393d6cb6ea5d692de687129f6e69823d54917be626',
    'spaces A_{2,1} metrics latex': '1bf4067f961e80aaae7a1896bbde2c637432577d2d0874f1f82b85f9520407d5',
    'spaces A_{2,1} metrics json': '04b7bbe6d16983b6408bcc393d6cb6ea5d692de687129f6e69823d54917be626',
    'spaces A_{2,1} cocycles latex': '11946ee484a507052638278647035bf595484b6f40f00f7e4f94ac41e1219f9f',
    'spaces A_{2,1} cocycles json': 'cf9e247b8fffebbe033ab817180f9a5c781938d267ceafb8fc50e7b5c0480792',
    'spaces A_{3,1} casimirs latex': '092e14a3254c804d89d7b454c6f8c2b88f7bed725a7e25678f40f60d6ce83af6',
    'spaces A_{3,1} casimirs json': '199966828f4e1b5066b492442465559eb2b3b3df2ef7b10a4fce279c8248d0b0',
    'spaces A_{3,1} metrics latex': '092e14a3254c804d89d7b454c6f8c2b88f7bed725a7e25678f40f60d6ce83af6',
    'spaces A_{3,1} metrics json': '199966828f4e1b5066b492442465559eb2b3b3df2ef7b10a4fce279c8248d0b0',
    'spaces A_{3,1} cocycles latex': '7fb4334e97c27d882dd4afd833474701978a7a9ed22a5d5a6a9779f08d2ab11d',
    'spaces A_{3,1} cocycles json': 'e3001f3b606c25073da5c4b98f4bed3e4d705dceb382d14f941e4e3cb17201db',
    'spaces A_{3,2} casimirs latex': '1772888631bcc4f3b7ed550ad3f4c74c2063dd6385003a36388277e5d38ebc3d',
    'spaces A_{3,2} casimirs json': 'd2b6f86c3602d836cf44d0eaf910a4ff0848499bff8c103727844c03c9e711d7',
    'spaces A_{3,2} metrics latex': '70421d4855ff207f927d0d86bff715337dcc567816a8805ca75f43401f9e1b3c',
    'spaces A_{3,2} metrics json': '4a466897ded8b200f401ef08bc2899cb07045adefa192de08b1230e64c373282',
    'spaces A_{3,2} cocycles latex': '7fb4334e97c27d882dd4afd833474701978a7a9ed22a5d5a6a9779f08d2ab11d',
    'spaces A_{3,2} cocycles json': '6c039080189ffd43213d37f1a020fa96a5b85300999a20c9141ca621292c10db',
    'spaces A_{3,3} casimirs latex': 'ba9864392eceafce44403e05cc737a6b54dd1bbbdef0a1f192f9aca87fc6506a',
    'spaces A_{3,3} casimirs json': '1cffcbd1fa3ca8470b08db6e1ed9aecf51cb2e0ffc10d559d5e4bf929fc07b5f',
    'spaces A_{3,3} metrics latex': 'ba9864392eceafce44403e05cc737a6b54dd1bbbdef0a1f192f9aca87fc6506a',
    'spaces A_{3,3} metrics json': '1cffcbd1fa3ca8470b08db6e1ed9aecf51cb2e0ffc10d559d5e4bf929fc07b5f',
    'spaces A_{3,3} cocycles latex': '7fb4334e97c27d882dd4afd833474701978a7a9ed22a5d5a6a9779f08d2ab11d',
    'spaces A_{3,3} cocycles json': '6c039080189ffd43213d37f1a020fa96a5b85300999a20c9141ca621292c10db',
    'spaces A_{4,1} casimirs latex': 'db3355a63f3139dc118ea46a1e18ed0889c74bdce9990e4fc902af708b8b3eea',
    'spaces A_{4,1} casimirs json': '0c3f111af5ebd43823f77d824257d7b72d0dc9c5aa9667760ea4340f6c52eda5',
    'spaces A_{4,1} metrics latex': 'db3355a63f3139dc118ea46a1e18ed0889c74bdce9990e4fc902af708b8b3eea',
    'spaces A_{4,1} metrics json': '0c3f111af5ebd43823f77d824257d7b72d0dc9c5aa9667760ea4340f6c52eda5',
    'spaces A_{4,1} cocycles latex': 'c04e43ddf2f445848e86cdf67710edaa08096d3f578e10aae12945854a240d4b',
    'spaces A_{4,1} cocycles json': 'c1ca51004e4c4e06bdf8fbf4972933a7f532c981f31766bcc4016d3c6a15e3b3',
    'spaces A_{4,2} casimirs latex': '6eafdd2cb7cec445f166da2ed77b930304feb1066e161e46ac266630f12fcda1',
    'spaces A_{4,2} casimirs json': 'e2dd8caba38ca40f4aa7cc0d448a52f8903a8bba178673c5697bb66977179549',
    'spaces A_{4,2} metrics latex': 'd4ae1028df21e5fb228fa64e0dade7c71908c266c1c2968213e4180004ef53db',
    'spaces A_{4,2} metrics json': '3a5e16be25ad4b80d09851c908e4998875e0324405fe83dceb9e9c14a0ee82e2',
    'spaces A_{4,2} cocycles latex': 'ff737f6d6f0dbb758fb03fab036ede29ba03d5adabf4987ef82e88cce990ece0',
    'spaces A_{4,2} cocycles json': '5b72c3713b08efcc1d16f62dab127c09d3d81afc88ab652bb9fafc6681ae4fb5',
    'spaces A_{4,3} casimirs latex': '0010f60c56d490b451619219bbdc111d92a4bc67ab1eb868d61ee0d3f5782ad0',
    'spaces A_{4,3} casimirs json': '8f97620e0a3886c9559fd98a13c1d3273ae3fa4e4d46aca1e5f7f27d2b1e8b6e',
    'spaces A_{4,3} metrics latex': '3c753ed1f338fd4a8dc49c38676d6c9cae4425ff0eff77e59bdc8bb4fa56a80f',
    'spaces A_{4,3} metrics json': '0d9b9831a9b459b64c85232a564f4711913d93acfe4995969bb2f18874aa8d35',
    'spaces A_{4,3} cocycles latex': 'ff737f6d6f0dbb758fb03fab036ede29ba03d5adabf4987ef82e88cce990ece0',
    'spaces A_{4,3} cocycles json': '5b72c3713b08efcc1d16f62dab127c09d3d81afc88ab652bb9fafc6681ae4fb5',
    'spaces A_{4,4} casimirs latex': 'b88d2c3642722aa3804e8d277d222e877206fd1188fa61e5ff9d0cc599a2f5a1',
    'spaces A_{4,4} casimirs json': 'fd6fb008c76b92f3822855da0dd8bfef292fdb2fedd3b0e3118b08729073b9b4',
    'spaces A_{4,4} metrics latex': '6da04d94449027df19767605fd8ebe31b3ca1e63bcba4d5b2eee3f8b3807774d',
    'spaces A_{4,4} metrics json': '6d7e473e1fb71d1f55813419af011bdea0b58050be33935ce122446c2a659f8d',
    'spaces A_{4,4} cocycles latex': '2cc66f3b3ac76f8f8cd9daaa14f60ddea1228f933a7bf7d687b79e222382d701',
    'spaces A_{4,4} cocycles json': '8e79a039952ba407eb4e410ccf5bfb50aea993227a899bac860351b3b3fb8f14',
    'spaces A_{4,5} casimirs latex': '8a8f6b615debff0b444dcc1016687d149327a10c7d09ab6ef438bf2f862ca666',
    'spaces A_{4,5} casimirs json': 'd8766950b51865ed38b054aa0246de24107865b16d44b3fb4162a30b27495fa8',
    'spaces A_{4,5} metrics latex': '8a8f6b615debff0b444dcc1016687d149327a10c7d09ab6ef438bf2f862ca666',
    'spaces A_{4,5} metrics json': 'd8766950b51865ed38b054aa0246de24107865b16d44b3fb4162a30b27495fa8',
    'spaces A_{4,5} cocycles latex': '2cc66f3b3ac76f8f8cd9daaa14f60ddea1228f933a7bf7d687b79e222382d701',
    'spaces A_{4,5} cocycles json': '8e79a039952ba407eb4e410ccf5bfb50aea993227a899bac860351b3b3fb8f14',
    'spaces A_{5,1} casimirs latex': '27e1509486fb3d3b12706e326bade3c7f34b62946795ae686a819443852da2fa',
    'spaces A_{5,1} casimirs json': 'fb2212f72c841ae2ff918867055f1102a05496a18264b6a6e5eccbeef242f1c8',
    'spaces A_{5,1} metrics latex': '27e1509486fb3d3b12706e326bade3c7f34b62946795ae686a819443852da2fa',
    'spaces A_{5,1} metrics json': 'fb2212f72c841ae2ff918867055f1102a05496a18264b6a6e5eccbeef242f1c8',
    'spaces A_{5,1} cocycles latex': '136d9223c0b2c52f2ce1f25760a79c5d3ae45c922a4aea846a55700f9df8dfcc',
    'spaces A_{5,1} cocycles json': 'beeba92508e53f246da0679a81dbb1b5805d8cc8c1ac74b35b3cb3e2d81cd9d6',
    'spaces A_{5,2} casimirs latex': '77313a00711302adbab5ecc5e480295e610f9e846fcdcc2a2c4f3e12c01a52fa',
    'spaces A_{5,2} casimirs json': '2d2e70de9f5a414c4680804c8fa0d65bf2d3fdf4c29100f21ef2189a4b5c30ea',
    'spaces A_{5,2} metrics latex': 'e2b94a8b9f228f06b2d61265ee708c21169a55d38a57692cbabd1f9269df0eae',
    'spaces A_{5,2} metrics json': '4d42dca871375ef9d221ac76125794bd4877c7635fe947363e6bab70e7454fb6',
    'spaces A_{5,2} cocycles latex': 'e54644a1233183f58674078b44dde0242dcb6ec7df0b60c6393510566b8c47ea',
    'spaces A_{5,2} cocycles json': 'cfca0fa141c648ecd864d18260da6961f729cfe971d1e6ebedf5d6790ab9dab2',
    'spaces A_{5,3} casimirs latex': '98850668aa4aa20b88e539207e21c7942fb7ffdf67858ef18e757e0ecbf1bdbc',
    'spaces A_{5,3} casimirs json': '1db4b3d2fb5d55d11d31d6c27e532b77094b42ddbd63220cbcb8af2fbca42ce6',
    'spaces A_{5,3} metrics latex': '98850668aa4aa20b88e539207e21c7942fb7ffdf67858ef18e757e0ecbf1bdbc',
    'spaces A_{5,3} metrics json': '1db4b3d2fb5d55d11d31d6c27e532b77094b42ddbd63220cbcb8af2fbca42ce6',
    'spaces A_{5,3} cocycles latex': 'e54644a1233183f58674078b44dde0242dcb6ec7df0b60c6393510566b8c47ea',
    'spaces A_{5,3} cocycles json': 'cfca0fa141c648ecd864d18260da6961f729cfe971d1e6ebedf5d6790ab9dab2',
    'spaces A_{5,4} casimirs latex': '2a3a4198c8245d7ab5efea4249f6c38ac7a839265a5acedaa942d6a9f6fdb1e4',
    'spaces A_{5,4} casimirs json': 'cb8eb5951c157a78acdd6c01d61acd5bdfaf8ccb828102346539f1408fd971fb',
    'spaces A_{5,4} metrics latex': '9f94ea55dafa263b2bd5fda6749f4d117a11fa90ed12790daf6d136c9723386d',
    'spaces A_{5,4} metrics json': '2e4037d49378401d91c107ddfa6e55f594150c3bedcebdafbdb7e86971a967f0',
    'spaces A_{5,4} cocycles latex': '9616cb20e1a8636f0973fd704c08685c3b078d8e8b4bed14d01e2bd98ce7bfa8',
    'spaces A_{5,4} cocycles json': '0b8f242901d334089f426ff3f07685d8c1737890ca78f9e14f7984397f1a6feb',
    'spaces A_{5,5} casimirs latex': 'b42205f1a5a0ef33a124fe0447dcc39bd1abe27f7393b5494ae63679ef1c15e5',
    'spaces A_{5,5} casimirs json': 'b5627de958ed332906b99cab0ec495e1fed7cf64cd4cdcfd02cfb4e9348579b8',
    'spaces A_{5,5} metrics latex': '8aa2d1e7cf96c506c63b6e01734d120397f125832df2634569b5af7085f8afd8',
    'spaces A_{5,5} metrics json': '26a06af5a2d76e7182909f46bc7fef7201355e2d57b497a0ee2dea3f93c9b20b',
    'spaces A_{5,5} cocycles latex': '9616cb20e1a8636f0973fd704c08685c3b078d8e8b4bed14d01e2bd98ce7bfa8',
    'spaces A_{5,5} cocycles json': '0b8f242901d334089f426ff3f07685d8c1737890ca78f9e14f7984397f1a6feb',
    'spaces A_{5,6} casimirs latex': '042661d03a003396f483c6ac41ebd8f94d9e9f4b876d72d63286ef0b2c567a4e',
    'spaces A_{5,6} casimirs json': 'ad47008417b169569d999dc28f795f2d7266c18c8a1219f41450f244d42d7589',
    'spaces A_{5,6} metrics latex': '3b7e505460c89f0900d17ef72adc4ec609e0704ba36362cbe065c238c28804b6',
    'spaces A_{5,6} metrics json': '0a68f18101733b8276205c8e3164321f47dc493656ae1fb4ca3211c740f12edb',
    'spaces A_{5,6} cocycles latex': '7458a0e3dbda82131679d386b8df18a306fb4d0a5db91dcdd21f46a8ffe614f7',
    'spaces A_{5,6} cocycles json': 'a9f52823ce6b7b2b826ce92c717857e3d2519c507a4b2af476aee241365d8204',
    'spaces A_{6,1} casimirs latex': '99415d20cdb5924ace113eabd0fce2d6ef557accfca94a18f51f8a54b075e556',
    'spaces A_{6,1} casimirs json': '709ddaff4fd50705edd830c1f557435ba3d41a430552e9d195321328be1a1b41',
    'spaces A_{6,1} metrics latex': '99415d20cdb5924ace113eabd0fce2d6ef557accfca94a18f51f8a54b075e556',
    'spaces A_{6,1} metrics json': '709ddaff4fd50705edd830c1f557435ba3d41a430552e9d195321328be1a1b41',
    'spaces A_{6,1} cocycles latex': 'a42944fbfe906d31e23f6b5567e94fcae8f740f4550831408967787a670a9c40',
    'spaces A_{6,1} cocycles json': '93fe97c32ae20eaa71aa6c0afd14dcdf29a7651615bc912e28b097399f5c3ba6',
    'spaces A_{6,2} casimirs latex': '4df37070c607fd989540d5558a5d9c550f4c392dfbe814ad04d3abac2d03ae22',
    'spaces A_{6,2} casimirs json': '1117ea8d2450ebec7dfda90712f4d3f07b86588ad5afc49a797a6fcef2fb22c2',
    'spaces A_{6,2} metrics latex': '54184d6f36366c1b9a067f1a94579d50e6a24cc2fad61157c24d12f69ce4acb2',
    'spaces A_{6,2} metrics json': 'a2423d18ae73c9f7c069c233a672750f18d27771172453dc1a4604b164056022',
    'spaces A_{6,2} cocycles latex': '4cb5853090955bf93aa5efdfcab63585a7cc2309b244ad85ebb26eb525529abc',
    'spaces A_{6,2} cocycles json': '4a932de0aa67df209ecd352d55271ac352337a22ae08ad8ad72f88f708d6449b',
    'spaces A_{6,3} casimirs latex': 'c3e8820b0419477bce2570142b8a8c453e1acb8a5d7b0a9db3506f5cb79358a0',
    'spaces A_{6,3} casimirs json': '8ebb620d8a69d738fa1cc77e375a5cf793516477e6ca4f1c52b996370679fb47',
    'spaces A_{6,3} metrics latex': 'c3e8820b0419477bce2570142b8a8c453e1acb8a5d7b0a9db3506f5cb79358a0',
    'spaces A_{6,3} metrics json': '8ebb620d8a69d738fa1cc77e375a5cf793516477e6ca4f1c52b996370679fb47',
    'spaces A_{6,3} cocycles latex': '4cb5853090955bf93aa5efdfcab63585a7cc2309b244ad85ebb26eb525529abc',
    'spaces A_{6,3} cocycles json': '4a932de0aa67df209ecd352d55271ac352337a22ae08ad8ad72f88f708d6449b',
    'spaces A_{6,4} casimirs latex': '1aa09bb647f38afb8fa73230343e6745fe848f10f00459cffd14eae8acce03bc',
    'spaces A_{6,4} casimirs json': 'beee4120b8eb533582af0a7f57bb6a8b09ff534ead862c7213f09ab7f4a0e305',
    'spaces A_{6,4} metrics latex': '9bda07a534379c12bc08ec26f5013abcdbfc13c4274fe456ff1df4eee9050456',
    'spaces A_{6,4} metrics json': '50de20fb291230c485322232b60afb138dceee5a1b55e67d503d5e9a46a210cf',
    'spaces A_{6,4} cocycles latex': '4cb5853090955bf93aa5efdfcab63585a7cc2309b244ad85ebb26eb525529abc',
    'spaces A_{6,4} cocycles json': '9b8a801dc15b20d70929a92938d2fadf107326258a5c99901c9a04080322598f',
    'spaces A_{6,5} casimirs latex': '55472aa8a40849e347596191aa54479524759a555c8e6ac64aedfa6f03f8a26f',
    'spaces A_{6,5} casimirs json': '3d34ba2d1c53b33a7da814cba508c98c7c3cce03c5c2362c14de6deb1b0f5f8d',
    'spaces A_{6,5} metrics latex': '55472aa8a40849e347596191aa54479524759a555c8e6ac64aedfa6f03f8a26f',
    'spaces A_{6,5} metrics json': '3d34ba2d1c53b33a7da814cba508c98c7c3cce03c5c2362c14de6deb1b0f5f8d',
    'spaces A_{6,5} cocycles latex': '4cb5853090955bf93aa5efdfcab63585a7cc2309b244ad85ebb26eb525529abc',
    'spaces A_{6,5} cocycles json': '9b8a801dc15b20d70929a92938d2fadf107326258a5c99901c9a04080322598f',
    'spaces A_{6,6} casimirs latex': '35b4a62196c1db54720822475c073908966659d741681caba2607be615896cbb',
    'spaces A_{6,6} casimirs json': '1c634a79b25f80a401ed177cd46c3c6d715a8132dcf520b3daed047653dccb0d',
    'spaces A_{6,6} metrics latex': 'fc4d2ebebe3ed8119441de3c9c06e675f304f4d82edca6aa7ea755608383b044',
    'spaces A_{6,6} metrics json': 'ce25f0b85d7e9d563b05060655d68382624795301367297a5976f418f0c172fd',
    'spaces A_{6,6} cocycles latex': '4cb5853090955bf93aa5efdfcab63585a7cc2309b244ad85ebb26eb525529abc',
    'spaces A_{6,6} cocycles json': '9b8a801dc15b20d70929a92938d2fadf107326258a5c99901c9a04080322598f',
    'spaces A_{6,7} casimirs latex': '6684fd36942f3591f9b64d6c4064e4d8cb28156d9c4cd411b4b452a1b98b5a44',
    'spaces A_{6,7} casimirs json': 'f2f116012d3a4f05be286ba5971a4193616ba9e4ffd0ad39c73e2e423df44704',
    'spaces A_{6,7} metrics latex': '310312319ebd728a857cd9a0ab8361c7c200a5c5f10e3ad3a641b6d898caf30d',
    'spaces A_{6,7} metrics json': '2749d5fb4964fbb1ddc2c6dadc8c0e82219486b5a377520a9ccbc0d030f5d0df',
    'spaces A_{6,7} cocycles latex': '721e0e8aad94c69bd4728e462cc0d8f1174c8b315b907f12f5c2f73092e9054c',
    'spaces A_{6,7} cocycles json': 'f773851d771bace6ade339566b1cd1ba8022d6f796d9424e9287f0395e6b9138',
    'spaces A_{6,8} casimirs latex': '5a02b79bbcc33ccf6f2c54571aa15123f998101f4158d43441b35b2b5ba06a25',
    'spaces A_{6,8} casimirs json': '32b6a36cef2cca957410dcf6f3ecd96446cf9b179580d38aad9cf7d92412fdad',
    'spaces A_{6,8} metrics latex': '7ded755039eee842accc707fd46828d496d59e5e2f268bb508118755e5e02ef8',
    'spaces A_{6,8} metrics json': 'ee58774e61986b2f572ba752267c9b4e31071103c2b5fd622d6be243008f1da5',
    'spaces A_{6,8} cocycles latex': '721e0e8aad94c69bd4728e462cc0d8f1174c8b315b907f12f5c2f73092e9054c',
    'spaces A_{6,8} cocycles json': 'f773851d771bace6ade339566b1cd1ba8022d6f796d9424e9287f0395e6b9138',
    'spaces A_{6,9} casimirs latex': '9e8ba8bcd076939140d23002306f8b53f0f4b8c8dd64622cac10db42df59b5c3',
    'spaces A_{6,9} casimirs json': '625e49fd0f70321537938e2e4ce5b80c15f52f4c036f1d6bf9f869555d1f58d4',
    'spaces A_{6,9} metrics latex': '6b328a8fe1162edde40c39422240c0c84d070cf755345f3c9caece523e1ea367',
    'spaces A_{6,9} metrics json': '97b2c375595e6d7fab1ca8fac2ab0afb65b5d923e993224fff0baedef7b9c799',
    'spaces A_{6,9} cocycles latex': '417ced3d6e4e402142f8d65260b4e66d79a8ec62aeb0638073aed8d5d45278c2',
    'spaces A_{6,9} cocycles json': '775eed3c76a6bd24b423c4c93c1e0f67d4520fe26f9e786b781bfea1b0f6bc8d',
    'spaces A_{6,10} casimirs latex': '9e8ba8bcd076939140d23002306f8b53f0f4b8c8dd64622cac10db42df59b5c3',
    'spaces A_{6,10} casimirs json': '625e49fd0f70321537938e2e4ce5b80c15f52f4c036f1d6bf9f869555d1f58d4',
    'spaces A_{6,10} metrics latex': '6b328a8fe1162edde40c39422240c0c84d070cf755345f3c9caece523e1ea367',
    'spaces A_{6,10} metrics json': '97b2c375595e6d7fab1ca8fac2ab0afb65b5d923e993224fff0baedef7b9c799',
    'spaces A_{6,10} cocycles latex': '417ced3d6e4e402142f8d65260b4e66d79a8ec62aeb0638073aed8d5d45278c2',
    'spaces A_{6,10} cocycles json': '775eed3c76a6bd24b423c4c93c1e0f67d4520fe26f9e786b781bfea1b0f6bc8d',
    'spaces A_{6,11} casimirs latex': '1e71d7b8bec20d165be646ea52cdea960ef944c60143672c29ff440bca6d8ea4',
    'spaces A_{6,11} casimirs json': '8e649cd820b89665bc86e32a7d2140d33efc87083019368645c5110a097539fe',
    'spaces A_{6,11} metrics latex': '423407f2296d88b9a2c61b8f4e1bd550baee85451de90a540c593873089004d5',
    'spaces A_{6,11} metrics json': 'bdacdb73854bb8154e9157949d8b59a804d6edf940126f440c8197840fabed76',
    'spaces A_{6,11} cocycles latex': '47a6ea789f7f5e9255e145e162a71302b64e974f948bf9a4bcd8d9a9d8b76734',
    'spaces A_{6,11} cocycles json': '8c7008a656a08ed45d4c25e08042dfd2594f8903011658f251f93341556c9949',
    'spaces A_{6,12} casimirs latex': 'ef82212f12ef47f7f8cc994e4a3f15d3148e5053dd29c2b01f5ce0b5fad43f02',
    'spaces A_{6,12} casimirs json': '2af65dd76427ed708ee570ba30ab7fcd19202d8dbc9e0908e9624fca0c4dd832',
    'spaces A_{6,12} metrics latex': '766122f9b58908820da73c8e93f63f199d1a20a30a17e0199ec68e28ba83e32d',
    'spaces A_{6,12} metrics json': 'e04a1655ad805e6ffdb7412fb0a80bf1873166f5f24bf97c518530a88698e21e',
    'spaces A_{6,12} cocycles latex': '62f36cd64956f7018ffb3916e5eadbcc992a4348d847c35d3849112d9ab83766',
    'spaces A_{6,12} cocycles json': 'fee1c3d4ce8f30efb1ee90f068e1b473c4a36678b6325beb2ff0c2bd447402f2',
    'spaces A_{6,13} casimirs latex': '6089d91e5aa290909291bbcfac67d01041eb7e8d1c23c9e61d21c7a5f1fb0d95',
    'spaces A_{6,13} casimirs json': '3a92d6cb868e337ce579a4b3cbbfbc5d9acee515c85fa4c3ea1085e40b580990',
    'spaces A_{6,13} metrics latex': '8cd30d4e603067cd84f453e0fb77d53d16102c33a2e178965af2291601ea949a',
    'spaces A_{6,13} metrics json': '67017d00b259465431c17b4150defd33344333efeafcfbafb2c9ba4d289957d8',
    'spaces A_{6,13} cocycles latex': '47a6ea789f7f5e9255e145e162a71302b64e974f948bf9a4bcd8d9a9d8b76734',
    'spaces A_{6,13} cocycles json': '8c7008a656a08ed45d4c25e08042dfd2594f8903011658f251f93341556c9949',
    'spaces A_{6,14} casimirs latex': '5bb534036d2ee97bf218b8a7f2d5e59fada9f78897f50ddb893e650f5169d6df',
    'spaces A_{6,14} casimirs json': 'ba6b5d9453c7c79ec9a1de7f8326728a612c2073513407fc7de49be02ee70fac',
    'spaces A_{6,14} metrics latex': '6d7da5d6cf8d8ff05a618d4af6b9374fcef72c0420482f4912febd8a043b3d81',
    'spaces A_{6,14} metrics json': '2c6ccdca950217d6701ebeb6b793328b462afaa852f0e2cc9d9e42397e243357',
    'spaces A_{6,14} cocycles latex': 'a8a9e29ba45e0794fcf1322b5fb1efbf28ac68b31c65c41138025c5b3a012d69',
    'spaces A_{6,14} cocycles json': 'bbd1e90f5713b6692e48f9b1c370876e11e2a2a14641cbd96aa52b7d562671d7',
    'spaces A_{6,15} casimirs latex': 'cbf0fabee4a5bc32076837800712d6415b2874a1027a8a8c0dae328acfae1894',
    'spaces A_{6,15} casimirs json': '12af422e18b5adf181e9406b04e9484b23422496637e7a9fa046531ea2912af9',
    'spaces A_{6,15} metrics latex': '254d75b57d3af93544ae8579b2302db86c401dc5ceb5487039e84bb84d0aea36',
    'spaces A_{6,15} metrics json': '666fe2332d0f3e508a066e00c8995e8c0f3d443731193d7e9afbe0f5eb20c0bc',
    'spaces A_{6,15} cocycles latex': '47a6ea789f7f5e9255e145e162a71302b64e974f948bf9a4bcd8d9a9d8b76734',
    'spaces A_{6,15} cocycles json': '8c7008a656a08ed45d4c25e08042dfd2594f8903011658f251f93341556c9949',
    'spaces A_{6,16} casimirs latex': '6250b9d9a265afed6fa3ddfc85d9a98341b603697b4bf4180f79299935b081ed',
    'spaces A_{6,16} casimirs json': 'd15875ae9f3e120a7dab3262761dd13549fbb38e05c5feca663db114c41cc092',
    'spaces A_{6,16} metrics latex': '7ff6d20cb0de81083aa24e8837b14bc96f857c642231605150468c39719e4d84',
    'spaces A_{6,16} metrics json': 'a9417dff043aafb4462aed0d7c5c75bd56cf34df800e39701af87a6efe93c703',
    'spaces A_{6,16} cocycles latex': '0eb1a7e1f71095f197126d52419542fe601ae8d78f5d646cb184ce3fc42dc74e',
    'spaces A_{6,16} cocycles json': '1c4560ac5a31021589c06020f20be5dd42aaf7ec8a26e4da2ab867fcd16c1088',
    'spaces A_{6,17} casimirs latex': '27ba06cfac6f81f4691d6d60add0764eec604793f0413e90b7c34991eefc1299',
    'spaces A_{6,17} casimirs json': '27cec86a5d4f98dcb8f8ce7d12aeed190eddd0bb98d2895a85fcdcca80b0f956',
    'spaces A_{6,17} metrics latex': '27ba06cfac6f81f4691d6d60add0764eec604793f0413e90b7c34991eefc1299',
    'spaces A_{6,17} metrics json': '27cec86a5d4f98dcb8f8ce7d12aeed190eddd0bb98d2895a85fcdcca80b0f956',
    'spaces A_{6,17} cocycles latex': '74aec71f1744b6fe487602137975b60dd378ebf2ab00cc3027fdaa3bc239d65f',
    'spaces A_{6,17} cocycles json': '853134bd61ed0e8a202df6b9bd078326f7c87a53073c4b31b9ea1ffcb99e2f53',
    'spaces A_{6,18} casimirs latex': '4339fa2982c720664582dfe5391a37a1da732e62f16bc4ef14ccdb07401ec178',
    'spaces A_{6,18} casimirs json': '7fc9f0fa459beac4c9a68301a35fc496b7c5c0cc1d0fd34aab41aefa14daa94b',
    'spaces A_{6,18} metrics latex': '977d92370aa88ed38328899511cf911ffe6c742a8b22728707c4f6c23f1061f4',
    'spaces A_{6,18} metrics json': '825103f4167755739d97bc54704e63df9c7b43a1f6f4243648c40b263903fe10',
    'spaces A_{6,18} cocycles latex': '733ee24780d38ac2cec48b43ba61b986819a3e47ab0700ed741704d7f5ece9a1',
    'spaces A_{6,18} cocycles json': '73dc9287edb8c538c7e12caec51a3d9fc99541aad009ec951dfd6613627e7de9',
    'verify kdv_A': '7ebbc0168780bc2290210898044429b95e59b041e7ce514c8ca1540d00cdf769',
    'verify not_lie': '737c5bfb5686a18eb7976786bc7872235d8048159f4c65eeaf1cf00e0647f345',
    'pencil kdv_A kdv_B': '2ab9b29afaef266860a449172018745854c66e0d97dd858beef6fd1a6adfdfd7',
    'pencil moduli moduli': 'e34b6b546d2802297a1baf839e33f265bcd1d56b8d11bffd6433c95578347f69',
    'catalog verify --all text': '234c972886cc5a128bd1909813d5323c1bf231a1621c6ae6cc9dc0e96687eb89',
    'catalog verify --all json': '8e3e68ee507c05a12ef74d30896ba085bf9f71d2236579b90d7ba8e1d43dd949',
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


def test_digest_table_names_every_case():
    assert sorted(DIGESTS) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id, argv, code", CASES, ids=[case[0] for case in CASES])
def test_output_is_byte_identical(workdir, case_id, argv, code):
    got_code, out = run(argv, workdir)
    assert got_code == code
    assert digest(out) == DIGESTS[case_id]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for case_id, argv, code in CASES:
            got_code, out = run(argv, tmp)
            if got_code != code:
                sys.exit(f"{case_id}: exit {got_code}, expected {code}")
            print(f"    {case_id!r}: {digest(out)!r},")
        print("}")
